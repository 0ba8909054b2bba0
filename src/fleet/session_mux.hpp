#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/sessions.hpp"
#include "net/event_loop.hpp"
#include "record/store.hpp"

namespace mahimahi::fleet {

/// Everything one emulated user's page load produced, in fixed-width
/// numeric fields so a fleet of outcomes serializes byte-identically at
/// any thread count. All times are simulated.
struct SessionOutcome {
  int session_index{-1};  // fleet index: fixes the seed and the arrival
  char success{0};
  double plt_ms{0};
  /// Arrival and completion on the *fleet* clock (the shared loop's
  /// epoch): start_ms = stagger * session_index by construction, and
  /// finish_ms - start_ms equals plt_ms — SessionMux asserts it, proving
  /// the session's events never ran on another session's clock.
  double start_ms{0};
  double finish_ms{0};
  std::uint32_t objects_loaded{0};
  std::uint32_t objects_failed{0};
  std::uint32_t connections_opened{0};
  std::uint64_t bytes_downloaded{0};
  /// Resilience accounting (fault axis): retry attempts and deadline
  /// expiries the session's browser recorded, and its graceful-degradation
  /// PLT (== plt_ms for clean loads).
  std::uint32_t retries{0};
  std::uint32_t timeouts{0};
  double degraded_plt_ms{0};
};

/// The fields of a SessionOutcome one page load determines — everything
/// but the session index and the fleet-clock times. The one conversion:
/// the mux applies it to every session, the experiment engine to solo
/// loads.
SessionOutcome session_outcome(const web::PageLoadResult& result);

/// One line per session, fixed precision, in session-index order — the
/// byte-comparison payload of the mux's determinism checks.
std::string serialize_outcomes(const std::vector<SessionOutcome>& outcomes);

/// Knobs of one mux (one event loop and one world's worth of sessions).
struct MuxConfig {
  /// Root of the fleet's seed tree. Session k's SessionConfig seed is
  /// forked as (fleet_seed, k) — a pure function of the session index,
  /// never of the order it was enrolled in.
  std::uint64_t fleet_seed{1};
  /// Arrival spacing: session k is admitted at loop time stagger * k.
  Microseconds stagger{1'000};
  /// Template for every session: shells, host profile, browser model,
  /// congestion control. The per-session seed is filled in by the mux.
  core::SessionConfig session{};
  /// Replay server-farm knobs of the shared world.
  replay::OriginServerSet::Options origin{};
  /// Must be true: a mux is always one shared world. It is a field only
  /// because existing callers set it; SessionMux rejects false with
  /// std::invalid_argument. A session with a world of its own is a solo
  /// load, which core::ReplaySession runs.
  bool shared_world{true};
};

/// Multiplexes many replay sessions onto ONE event loop and ONE world —
/// one fabric, one shell stack, one origin-server farm, one DNS — so
/// concurrent users contend for servers and link bandwidth (the
/// experiment engine's offered-load axis). Each enrolled session is
/// admitted at its arrival time, runs a full page load in a browser of
/// its own, and retires; the mux reports one SessionOutcome per session
/// in index order.
///
/// Contract: a mux is one indivisible, deterministic simulation. Its
/// outcomes are a pure function of (fleet_seed, the enrolled indices,
/// stagger, session template, store, url). Session k's seed is forked as
/// (fleet_seed, k) and its arrival is stagger * k, so with stagger > 0
/// enrollment order never matters (same-time arrivals are admitted in
/// enrollment order). A session's results do depend on which siblings
/// share its world, so a fleet is never split across muxes.
class SessionMux {
 public:
  /// `url` is loaded once per session from `store` (shared, read-only).
  SessionMux(const record::RecordStore& store, std::string url,
             MuxConfig config);
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Enroll the session with fleet index `index` (distinct, >= 0; need
  /// not be contiguous). Throws after run().
  void add_session(int index);

  /// Run every enrolled session to completion (one call per mux; a
  /// second call throws). Returns outcomes sorted by session index.
  std::vector<SessionOutcome> run();

  /// Peak number of sessions simultaneously in flight on this loop during
  /// run() — the mux's realized concurrency.
  [[nodiscard]] std::size_t peak_live_sessions() const { return peak_live_; }

 private:
  struct Slot {
    int index{0};
    Microseconds start_at{0};
    std::uint64_t session_seed{0};
    /// The session's browser, retired once its load is done.
    std::unique_ptr<web::Browser> browser;
    net::SessionClock clock{};
    SessionOutcome outcome{};
    bool done{false};
  };

  void admit(Slot& slot);
  void complete(Slot& slot, web::PageLoadResult result);

  const record::RecordStore& store_;
  std::string url_;
  MuxConfig config_;
  net::EventLoop loop_;
  /// The one namespace every session lives in.
  std::unique_ptr<core::ReplayNamespace> world_;
  std::deque<Slot> slots_;  // stable addresses: admission events hold Slot&
  std::size_t live_{0};
  std::size_t peak_live_{0};
  bool ran_{false};
};

}  // namespace mahimahi::fleet
