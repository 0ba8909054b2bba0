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
/// numeric fields so a fleet of outcomes serializes byte-identically
/// regardless of shard assignment or thread count (the fleet determinism
/// contract). All times are simulated.
struct SessionOutcome {
  int session_index{-1};  // global fleet index, the determinism anchor
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
/// byte-comparison payload of the fleet selfcheck and determinism tests.
std::string serialize_outcomes(const std::vector<SessionOutcome>& outcomes);

/// Knobs of one mux (one event loop's worth of sessions).
struct MuxConfig {
  /// Root of the fleet's seed tree. Session i's SessionConfig seed is
  /// forked as (fleet_seed, i) — a pure function of the *global* session
  /// index, never of the shard it lands on or the order it was enrolled.
  std::uint64_t fleet_seed{1};
  /// Arrival spacing: session i is admitted at loop time stagger * i —
  /// again a function of the global index, so re-sharding a fleet never
  /// moves a session's arrival.
  Microseconds stagger{1'000};
  /// Template for every session: shells, host profile, browser model,
  /// congestion control. The per-session seed is filled in by the mux.
  core::SessionConfig session{};
  /// Replay server-farm knobs, passed through to every session's world.
  replay::OriginServerSet::Options origin{};
  /// false: every session runs in its own connection namespace (fabric,
  ///   origin servers, DNS, shells) — sessions share only the loop, and
  ///   their results are byte-identical under any shard assignment.
  /// true: all sessions share ONE namespace — one fabric, one shell
  ///   stack, one origin-server farm — so concurrent users contend for
  ///   servers and link bandwidth (the experiment engine's offered-load
  ///   axis). A shared world is one indivisible simulation: it is
  ///   deterministic as a whole, but its sessions are not individually
  ///   relocatable, so it must never be split across muxes.
  bool shared_world{false};
};

/// Multiplexes many independent replay sessions onto ONE event loop — the
/// fleet-scale unit of concurrency. Each enrolled session is admitted at
/// its arrival time, runs a full page load, and retires; the mux reports
/// one SessionOutcome per session in global-index order.
///
/// Isolation contract (isolated mode): a session's world is its own
/// core::ReplayNamespace — its own fabric (socket namespace), server farm,
/// DNS and shells — plus its browser, created on admission. Worlds share
/// nothing but the loop; event ids are (slot, generation)-validated, so
/// one session cancelling its timers can never touch another's. The only
/// cross-session coupling is the loop's tie-break order for same-timestamp
/// events, which no simulation result depends on. Hence: per-session
/// results are a pure function of (fleet_seed, session_index, session
/// template), regardless of which mux — or how many sibling sessions — a
/// session runs with.
class SessionMux {
 public:
  /// `url` is loaded once per session from `store` (shared, read-only).
  SessionMux(const record::RecordStore& store, std::string url,
             MuxConfig config);
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Enroll the session with the given *global* fleet index. Indices must
  /// be distinct; they need not be contiguous — a shard enrolls only its
  /// own subset (e.g. every k-th index).
  void add_session(int global_index);

  [[nodiscard]] std::size_t session_count() const { return slots_.size(); }

  /// Run every enrolled session to completion (one call per mux).
  /// Returns outcomes sorted by global session index.
  std::vector<SessionOutcome> run();

  /// Peak number of sessions simultaneously in flight on this loop during
  /// run() — the mux's realized concurrency.
  [[nodiscard]] std::size_t peak_live_sessions() const { return peak_live_; }

  [[nodiscard]] const net::EventLoop& loop() const { return loop_; }

 private:
  struct Slot {
    int global_index{0};
    Microseconds start_at{0};
    std::uint64_t session_seed{0};
    /// Isolated mode: the session's own namespace. Namespaces are torn
    /// down together after the loop drains — never mid-run, because
    /// packets in flight hold scheduled events that reference their
    /// elements.
    std::unique_ptr<core::ReplayNamespace> world;
    /// The session's browser, in both modes. Declared after `world`, so
    /// it is torn down first; shared mode retires it once its load is
    /// done.
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
  /// The one namespace every session lives in (shared_world mode only).
  std::unique_ptr<core::ReplayNamespace> shared_;
  std::deque<Slot> slots_;  // stable addresses: admission events hold Slot&
  std::size_t live_{0};
  std::size_t peak_live_{0};
  bool ran_{false};
};

}  // namespace mahimahi::fleet
