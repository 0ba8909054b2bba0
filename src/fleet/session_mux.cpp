#include "fleet/session_mux.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace mahimahi::fleet {

namespace {

/// Fixed-precision formatting, same discipline as experiment::Report: a
/// finite double printf'd at fixed precision is a pure function of the
/// value, so byte-identical outcomes serialize to byte-identical text.
void append_outcome_line(std::string& out, const SessionOutcome& o) {
  char buffer[320];
  std::snprintf(buffer, sizeof buffer,
                "session %6d ok=%d plt_ms=%.6f start_ms=%.3f finish_ms=%.3f "
                "objects=%u failed=%u connections=%u bytes=%llu "
                "retries=%u timeouts=%u degraded_plt_ms=%.6f\n",
                o.session_index, o.success ? 1 : 0, o.plt_ms, o.start_ms,
                o.finish_ms, o.objects_loaded, o.objects_failed,
                o.connections_opened,
                static_cast<unsigned long long>(o.bytes_downloaded),
                o.retries, o.timeouts, o.degraded_plt_ms);
  out += buffer;
}

/// Safety valve forwarded to the loop (see EventLoop::set_event_limit).
constexpr std::size_t kEventLimit = 2'000'000'000;

/// Session k's seed: forked from the fleet seed by index alone — the
/// (fleet_seed, session_index) contract.
std::uint64_t derive_session_seed(std::uint64_t fleet_seed, int index) {
  util::Rng root{fleet_seed};
  return root.fork("session-" + std::to_string(index)).next();
}

}  // namespace

SessionOutcome session_outcome(const web::PageLoadResult& result) {
  SessionOutcome o;
  o.success = result.success ? 1 : 0;
  o.plt_ms = to_ms(result.page_load_time);
  o.objects_loaded = static_cast<std::uint32_t>(result.objects_loaded);
  o.objects_failed = static_cast<std::uint32_t>(result.objects_failed);
  o.connections_opened = static_cast<std::uint32_t>(result.connections_opened);
  o.bytes_downloaded = result.bytes_downloaded;
  o.retries = static_cast<std::uint32_t>(result.retries);
  o.timeouts = static_cast<std::uint32_t>(result.timeouts);
  o.degraded_plt_ms = to_ms(result.degraded_page_load_time);
  return o;
}

std::string serialize_outcomes(const std::vector<SessionOutcome>& outcomes) {
  std::string out;
  out.reserve(outcomes.size() * 96);
  for (const SessionOutcome& outcome : outcomes) {
    append_outcome_line(out, outcome);
  }
  return out;
}

SessionMux::SessionMux(const record::RecordStore& store, std::string url,
                       MuxConfig config)
    : store_{store}, url_{std::move(url)}, config_{std::move(config)} {
  if (!config_.shared_world) {
    throw std::invalid_argument{
        "SessionMux runs one shared world; a session with a world of its "
        "own is a solo load (core::ReplaySession)"};
  }
  MAHI_ASSERT_MSG(config_.stagger >= 0, "fleet stagger must be >= 0");
  loop_.set_event_limit(kEventLimit);
  // The shared namespace belongs to no one session: its fault plan and
  // shells fork from the fleet seed, so every session observes the same
  // flap/crash/DNS schedule, and its trace events carry session -1.
  const util::Rng rng{config_.fleet_seed ^ config_.session.host.seed_salt};
  world_ = std::make_unique<core::ReplayNamespace>(
      loop_, store_, config_.session, config_.origin,
      rng.fork("fault-plan").next(), rng.fork("shared-world-shells"), -1);
}

SessionMux::~SessionMux() = default;

void SessionMux::add_session(int index) {
  MAHI_ASSERT_MSG(!ran_, "add_session after run()");
  MAHI_ASSERT_MSG(index >= 0, "session index must be >= 0");
  for (const Slot& slot : slots_) {
    MAHI_ASSERT_MSG(slot.index != index,
                    "session " << index << " enrolled twice");
  }
  slots_.emplace_back();
  Slot& slot = slots_.back();
  slot.index = index;
  slot.start_at = config_.stagger * index;
  slot.session_seed = derive_session_seed(config_.fleet_seed, index);
}

void SessionMux::admit(Slot& slot) {
  ++live_;
  peak_live_ = std::max(peak_live_, live_);
  slot.clock = net::SessionClock{loop_, loop_.now()};

  core::SessionConfig session = config_.session;
  session.seed = slot.session_seed;
  // Trace attribution: this session's events carry its fleet index
  // (shared infrastructure logs as -1).
  session.trace_session = slot.index;
  // The session's randomness forks from its own seed, so the user
  // population is reproducible independent of arrival interleaving.
  const util::Rng rng = core::session_load_rng(session, 0);
  slot.browser = std::make_unique<web::Browser>(
      world_->fabric(), world_->dns(), core::session_browser_config(session),
      rng.fork("browser"));
  slot.browser->load(url_, [this, &slot](web::PageLoadResult result) {
    complete(slot, std::move(result));
  });
}

void SessionMux::complete(Slot& slot, web::PageLoadResult result) {
  MAHI_ASSERT_MSG(!slot.done, "session completed twice");
  MAHI_ASSERT(live_ > 0);
  --live_;
  slot.done = true;
  // Timer-isolation audit: the load must have finished on its own session
  // clock — exactly page_load_time after this session's admission, no
  // matter how many sibling sessions shared the loop.
  MAHI_ASSERT_MSG(slot.clock.now() == result.page_load_time,
                  "session " << slot.index << " finished off its own clock");
  MAHI_ASSERT_MSG(result.started_at == slot.clock.origin(),
                  "session " << slot.index
                             << " load started off its admission time");
  slot.outcome = session_outcome(result);
  slot.outcome.session_index = slot.index;
  slot.outcome.start_ms = to_ms(slot.clock.origin());
  slot.outcome.finish_ms = to_ms(loop_.now());
  // Retire the browser once the loop is past its frames: destroying it
  // inside its own completion callback would unwind into freed state. The
  // shared world stays until the mux is destroyed.
  web::Browser* browser = slot.browser.get();
  loop_.schedule_in(0, [&slot, browser] {
    MAHI_ASSERT(slot.browser.get() == browser);
    slot.browser.reset();
  });
}

std::vector<SessionOutcome> SessionMux::run() {
  MAHI_ASSERT_MSG(!ran_, "SessionMux::run is one-shot");
  ran_ = true;
  for (Slot& slot : slots_) {
    loop_.schedule_at(slot.start_at, [this, &slot] { admit(slot); });
  }
  if (config_.session.deadline > 0) {
    // Watchdog over the whole mux: a fleet is one indivisible
    // simulation, so the deadline covers every session. An
    // unfinished fleet becomes a typed failure listing how far it got.
    loop_.run_until(config_.session.deadline);
    std::size_t done = 0;
    for (const Slot& slot : slots_) {
      done += slot.done ? 1 : 0;
    }
    if (done != slots_.size()) {
      if (config_.session.tracer != nullptr) {
        config_.session.tracer->event(
            config_.session.deadline, obs::Layer::kRunner,
            obs::EventKind::kWatchdogExpired, -1, 0, done,
            to_ms(config_.session.deadline), url_);
      }
      throw core::WatchdogError{
          "watchdog: fleet load exceeded " +
          std::to_string(config_.session.deadline / 1000) +
          " ms of virtual time (" + std::to_string(done) + "/" +
          std::to_string(slots_.size()) + " sessions complete)"};
    }
  } else {
    loop_.run();
  }

  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (!slot.done) {
      throw std::runtime_error{
          "fleet session " + std::to_string(slot.index) +
          " never completed (event loop drained)"};
    }
    outcomes.push_back(slot.outcome);
  }
  std::sort(outcomes.begin(), outcomes.end(),
            [](const SessionOutcome& a, const SessionOutcome& b) {
              return a.session_index < b.session_index;
            });
  // Release the finished slots with the loop idle.
  slots_.clear();
  return outcomes;
}

}  // namespace mahimahi::fleet
