// Campaign orchestration engine: retrying multi-wave rollouts.
//
// DeployCampaign (server.hpp) is single-shot: one kInstallBatch push per
// vehicle — the same push interactive Deploy makes — and no second
// chances.  A real fleet converges only if somebody
// retries — vehicles are offline, links flap mid-push, ECUs nack while a
// transient clears.  The engine is that somebody: a durable per-campaign
// state machine driven entirely by simulator events.
//
// Per-VIN row life cycle (CampaignRowState):
//
//   pending ──wave──> pushed ──acked──> done
//                       │ └─nack──> nacked ─┐
//                       └──offline──────────┤
//                                           └─retrying──> pushed ... /failed
//
// A wave pushes every retriable row, in row order, through
// TrustedServer::CampaignWavePush, waits `settle_delay` of sim-time for
// the acknowledgements to land, re-evaluates every row against the
// server's InstalledAPP table, and schedules the next wave after an
// exponential backoff — until the fleet converges, the nack
// fraction crosses the abort threshold, or the wave budget is exhausted.
//
// Rollback campaigns (StartRollback) run the same machine in reverse:
// one kUninstallBatch per vehicle — the kInstallBatch framing mirrored,
// and the same push interactive UninstallApp makes — converging when the
// vehicle's row is gone.
//
// Determinism: orchestration, wave pushes and ack application all run on
// the simulation thread in event order, so a seeded fault scenario
// (sim/fault.hpp) replays byte-identically:
// Describe() fingerprints the full row table for exactly that comparison.
//
// Durability: AttachJournal() write-ahead-logs every tick's row/wave
// transitions (server/journal.hpp); Recover() rebuilds a fresh engine
// from the journal image and resumes the pending retry waves.
//
// Lifetime: engine ticks are guarded by a weak alive token and a
// per-slot epoch, so destroying the engine (or Forget()ing a campaign)
// with a settle-delay timer still scheduled leaves an inert event, not
// a dangling callback — the kill-and-restart recovery harness does
// exactly that.  A deploy campaign also owns the install payloads its
// waves built (CampaignWavePush hands them over): it holds them from
// the wave that built them until Finish, whatever the terminal status,
// so each (model, app, version, id-layout) batch is built at most once
// per campaign and a retry wave re-pushes wave 1's bytes by refcount.
// The pins die with the engine too; a campaign recovered from the
// journal starts with none.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "server/server.hpp"
#include "sim/simulator.hpp"

namespace dacm::server {

class CampaignJournal;

struct CampaignTag {};
using CampaignId = support::StrongId<CampaignTag>;

/// Knobs of the per-campaign retry machine.  All times are sim-time.
struct RetryPolicy {
  /// Push waves, including the first.  Rows still retriable when the
  /// budget is spent go kFailed and the campaign finishes kExhausted.
  std::size_t max_waves = 5;
  /// Gap between a wave's pushes and the evaluation of their outcome
  /// (must cover a round trip; acks landing later are caught next wave).
  sim::SimTime settle_delay = 100 * sim::kMillisecond;
  /// Gap between wave k and wave k+1: initial_backoff *
  /// backoff_multiplier^(k-1), capped at max_backoff.
  sim::SimTime initial_backoff = 500 * sim::kMillisecond;
  double backoff_multiplier = 2.0;
  sim::SimTime max_backoff = 8 * sim::kSecond;
  /// Abort the campaign when (nacked rows / fleet size) reaches this
  /// after any wave.  1.0 aborts only an all-nack fleet; > 1.0 disables.
  double abort_nack_fraction = 1.0;
};

enum class CampaignRowState : std::uint8_t {
  kPending,   // never pushed (campaign just started, or vehicle unknown yet)
  kPushed,    // batch pushed, acknowledgement outstanding
  kNacked,    // vehicle (or one of its ECUs) rejected the batch
  kOffline,   // push failed: no live connection; eligible for a later wave
  kRetrying,  // selected for the in-flight wave (transient)
  kDone,      // converged: fully acked (deploy) / row gone (rollback)
  kFailed,    // terminal: rejected, aborted, or retry budget exhausted
};
std::string_view CampaignRowStateName(CampaignRowState state);

enum class CampaignStatus : std::uint8_t {
  kRunning,
  kConverged,  // every row kDone
  kAborted,    // nack fraction crossed RetryPolicy::abort_nack_fraction
  kExhausted,  // finished with kFailed rows (budget spent or terminal rejects)
};
std::string_view CampaignStatusName(CampaignStatus status);

struct CampaignRow {
  std::string vin;
  CampaignRowState state = CampaignRowState::kPending;
  /// Push attempts (successful or offline) across all waves.
  std::size_t attempts = 0;
  /// Sim time the row was observed done (0 until then).
  sim::SimTime done_at = 0;
  /// Last offline / rejection reason.  A bare code, not a Status: the
  /// row table is sized for million-VIN fleets, and the heap-allocated
  /// message (the VIN again, plus boilerplate) carried no information a
  /// code does not — the journal never persisted it either.
  support::ErrorCode error = support::ErrorCode::kOk;
  /// The server's FleetStore handle for this VIN, resolved once
  /// (Evaluate) instead of re-hashed every tick.  A cache, never
  /// journaled: an unresolved handle (FleetStore::kNil: unknown VIN, or a
  /// recovered row) is resolved again on each tick until the VIN shows up.
  std::uint32_t vehicle = FleetStore::kNil;
};

/// Aggregate view of one campaign (cheap; computed from the row table).
struct CampaignSnapshot {
  CampaignId id = CampaignId::Invalid();
  CampaignKind kind = CampaignKind::kDeploy;
  CampaignStatus status = CampaignStatus::kRunning;
  std::size_t rows = 0;
  std::size_t pending = 0;
  std::size_t pushed = 0;
  std::size_t nacked = 0;
  std::size_t offline = 0;
  std::size_t retrying = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t waves_pushed = 0;
  /// Push attempts across all waves and rows (retries/vehicle =
  /// total_pushes / rows - 1 on a converged campaign).
  std::uint64_t total_pushes = 0;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;  // 0 while running
};

class CampaignEngine {
 public:
  CampaignEngine(sim::Simulator& simulator, TrustedServer& server);

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Starts a retrying deploy campaign of `app_name` over `vins`.  The
  /// first wave fires at the current sim time (as a scheduled event);
  /// fails fast when the app is unknown or the fleet is empty.
  support::Result<CampaignId> StartDeploy(UserId user, std::string app_name,
                                          std::span<const std::string> vins,
                                          RetryPolicy policy = {});

  /// Starts a rollback campaign: batched uninstalls of `app_name` over
  /// `vins`, converging when every row is gone (vehicles that never had
  /// the app are done immediately).
  support::Result<CampaignId> StartRollback(UserId user, std::string app_name,
                                            std::span<const std::string> vins,
                                            RetryPolicy policy = {});

  bool Finished(CampaignId id) const;
  support::Result<CampaignSnapshot> Snapshot(CampaignId id) const;
  /// Per done-row convergence latency (done_at - started_at), row order.
  support::Result<std::vector<sim::SimTime>> TimesToDone(CampaignId id) const;
  const CampaignRow* FindRow(CampaignId id, std::string_view vin) const;
  /// Deterministic fingerprint of the whole campaign (status, waves and
  /// every row's final state) — byte-identical across identically seeded
  /// runs; determinism tests compare exactly this string.
  std::string Describe(CampaignId id) const;
  /// FNV-1a hash of exactly the bytes Describe() would return, streamed
  /// without materializing the row table as a string — the comparison
  /// handle at fleet scale, where Describe() on a million-row campaign
  /// would allocate tens of megabytes just to be hashed and thrown away.
  std::uint64_t Fingerprint(CampaignId id) const;
  /// Releases a *finished* campaign's row table (ids are never reused;
  /// queries on a forgotten id return NotFound).  Long-lived engines —
  /// the fault bench runs thousands of campaigns through one — call this
  /// after harvesting the snapshot, or memory grows with history.
  support::Status Forget(CampaignId id);
  std::size_t campaign_count() const { return campaigns_.size(); }

  /// Attaches a write-ahead journal: Start/Tick/Forget transitions are
  /// logged through it from now on.  Pass nullptr to detach.  The
  /// journal must outlive the engine (or the next Attach call).
  void AttachJournal(CampaignJournal* journal) { journal_ = journal; }

  /// Folds the engine's in-memory campaign state into a checkpoint image
  /// (fresh kStart/kRows/kWave/kFinish per live slot, a bare kForget
  /// tombstone per retired one) and atomically rotates the journal onto
  /// it — the Forget-growth fix: retired campaigns' full record chains
  /// are dropped.  Call on clean shutdown, or let the watermark below
  /// trigger it after ticks.  Never runs from a destructor: the crash
  /// harness kills engines precisely to model a server that did NOT get
  /// to compact.
  support::Status CompactJournal();

  /// Compacts automatically once the journal has grown past `bytes`
  /// since its last rotation (checked after each tick commit); 0
  /// disables (the default).
  void SetJournalCompactionWatermark(std::uint64_t bytes) {
    journal_compact_after_bytes_ = bytes;
  }

  /// Rebuilds the engine from a journal image (ReplayCampaignJournal)
  /// and schedules the resume tick of every still-running campaign at
  /// max(recorded next tick, Now()).  Only valid on an engine with no
  /// campaigns; the server must already hold the recovered install DB,
  /// or resumed waves will re-push converged rows.  Journaling of the
  /// resumed campaigns continues into the attached journal, if any.
  support::Status Recover(std::span<const std::uint8_t> journal_image);

 private:
  struct Campaign {
    CampaignId id = CampaignId::Invalid();
    CampaignKind kind = CampaignKind::kDeploy;
    UserId user = UserId::Invalid();
    std::string app_name;
    RetryPolicy policy;
    CampaignStatus status = CampaignStatus::kRunning;
    std::vector<CampaignRow> rows;
    std::size_t waves_pushed = 0;
    std::uint64_t total_pushes = 0;
    sim::SimTime started_at = 0;
    sim::SimTime last_push_at = 0;
    sim::SimTime finished_at = 0;
    /// When the next engine turn is due (journaled so recovery resumes
    /// the retry cadence instead of restarting it).
    sim::SimTime next_tick_at = 0;
    /// Bumped on every ScheduleTick: a pending tick whose captured epoch
    /// no longer matches was superseded (or the campaign was recovered)
    /// and must not fire.
    std::uint64_t epoch = 0;
    /// Row indices mutated since the last journal commit.
    std::vector<std::uint32_t> dirty;
    /// Install payloads this campaign's waves built, one per variant,
    /// held until Finish (see "Lifetime" above).
    PayloadPins pins;
  };

  support::Result<CampaignId> Start(CampaignKind kind, UserId user,
                                    std::string app_name,
                                    std::span<const std::string> vins,
                                    RetryPolicy policy);
  const Campaign* Find(CampaignId id) const;

  /// One engine turn: evaluate every row, finish or (re)schedule, and
  /// push the next wave once its backoff has elapsed.  `epoch` retires
  /// stale timers (see Campaign::epoch).
  void Tick(std::size_t index, std::uint64_t epoch);
  void Evaluate(Campaign& campaign);
  void PushWave(Campaign& campaign, const std::vector<std::size_t>& retry);
  void Finish(Campaign& campaign, CampaignStatus status);
  /// Streams the Describe() text into `sink` (one Append(string_view)
  /// call per fragment) — the single formatter behind Describe and
  /// Fingerprint, so the two can never drift apart.
  template <typename Sink>
  void Format(const Campaign* campaign, Sink& sink) const;
  sim::SimTime Backoff(const RetryPolicy& policy, std::size_t waves_pushed) const;
  void ScheduleTick(std::size_t index, sim::SimTime at);
  /// Journals the tick's dirtied rows plus a wave/finish marker.
  void CommitTick(Campaign& campaign);
  /// Runs CompactJournal once the watermark is crossed (warn on failure).
  void MaybeCompactJournal();

  sim::Simulator& simulator_;
  TrustedServer& server_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  CampaignJournal* journal_ = nullptr;
  std::uint64_t journal_compact_after_bytes_ = 0;
  /// Weak-referenced by every scheduled tick: expires with the engine,
  /// so timers outliving a killed engine are inert instead of dangling.
  std::shared_ptr<const bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dacm::server
