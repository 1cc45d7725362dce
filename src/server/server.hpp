// The trusted server (paper §3.2, Figure 2).
//
// "All plug-in management is done through a pre-defined trusted server...
// the trusted server acts as a central point of intelligence, performing
// compatibility checks and generating the different types of context."
//
// The class exposes the paper's two external modules:
//  * Web Services — programmatic facade for users (account setup, vehicle
//    binding), OEMs (vehicle-model conf uploads) and developers (APP +
//    SW conf uploads), plus the deploy / uninstall / restore operations;
//  * Pusher — the vehicle-facing side: ECMs connect over the simulated
//    network, announce their VIN, receive pushed installation packages and
//    lifecycle commands, and return acknowledgements that are tracked in
//    the InstalledAPP table.
//
// Scale-out: per-vehicle state lives in one packed columnar FleetStore
// (server/fleet_store.hpp) — VINs interned to dense u32 handles, install
// rows in a slab keyed by handle.  Campaigns visit vehicles in the
// caller's order on the calling thread.  Package
// generation is content-addressed (server/package_cache.hpp): a campaign
// over millions of vehicles generates and serializes each distinct
// (model, app, version, id-layout) batch exactly once and re-pushes the
// same refcounted envelope fleet-wide.
//
// Inbound acknowledgements — the server's highest-volume traffic — are
// staged into one arrival-ordered inbox and applied by a flush event
// scheduled for the arrival timestamp, so one event covers a whole burst.
// Campaign *orchestration* (multi-wave retries, rollback campaigns, abort
// thresholds) lives in server/campaign.hpp and drives the
// CampaignWavePush entry point below.
//
// Threading: none.  Every entry point, and every callback the server
// schedules, runs on the simulation thread (see README "Threading
// model").
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pirte/protocol.hpp"
#include "server/catalog.hpp"
#include "server/context_gen.hpp"
#include "server/fleet_store.hpp"
#include "server/model.hpp"
#include "server/package_cache.hpp"
#include "server/status_db.hpp"
#include "sim/network.hpp"

namespace dacm::server {

struct ServerStats {
  std::uint64_t packages_pushed = 0;
  std::uint64_t acks_received = 0;
  /// Negative acknowledgements: per-plug-in nacks plus whole-batch
  /// rejections (each batch rejection counts once).
  std::uint64_t nacks_received = 0;
  std::uint64_t deploys_ok = 0;
  std::uint64_t deploys_rejected = 0;
  std::uint64_t uninstalls = 0;
  std::uint64_t restores = 0;
  /// Campaign re-pushes of an already-recorded install batch (retry of a
  /// row whose acks were lost mid-flap).
  std::uint64_t repushes = 0;
  /// Batched kUninstallBatch pushes from rollback campaigns.
  std::uint64_t rollback_pushes = 0;
  /// Dead Pusher connections pruned (handshake reaping + Hello adoption).
  std::uint64_t connections_reaped = 0;
  /// Sticky: a status-log write or sync failed even after the bounded
  /// retry loop — the in-memory state is ahead of the durable log, and a
  /// crash from here loses the unlogged transitions.  Set once, never
  /// cleared (the log's durable prefix stays short of reality until a
  /// successful compaction rewrites it).
  bool durability_degraded = false;
  /// Status-log appends that succeeded only after retrying.
  std::uint64_t status_write_retries = 0;
  /// Status-log appends abandoned (degraded mode, or retries exhausted).
  std::uint64_t status_writes_lost = 0;
  /// Checkpoint compactions completed (watermark or explicit Compact()).
  std::uint64_t compactions = 0;
};

/// Direction of an orchestrated campaign wave (see server/campaign.hpp).
enum class CampaignKind : std::uint8_t { kDeploy = 0, kRollback = 1 };

/// Per-VIN outcome of one campaign wave push.
struct WaveOutcome {
  enum class Action : std::uint8_t {
    kAlreadyDone,  // nothing to do: installed (deploy) / gone (rollback)
    kPushed,       // batch staged onto the vehicle's connection
    kOffline,      // no live connection; eligible for a later wave
    kRejected,     // terminal rejection (compat, ownership, unknown VIN...)
  };
  Action action = Action::kRejected;
  support::Status status;
};

/// One VIN of a campaign wave with its FleetStore handle, resolved by the
/// caller (TrustedServer::ResolveVehicle; FleetStore::kNil = unknown).
struct WaveTarget {
  std::string_view vin;
  std::uint32_t vehicle = FleetStore::kNil;
};

/// What a campaign evaluation sees of one (vehicle, app) row.
enum class RowProbe : std::uint8_t {
  kNoVehicle,  // unknown or unbound VIN
  kNoRow,      // bound vehicle without the app
  kPending,
  kInstalled,
  kFailed,
  kUninstalling,
};

struct ServerOptions {
  /// Durable install DB (server/status_db.hpp): when set, every
  /// InstalledApp mutation writes a status paragraph ahead of the
  /// visible transition, and RecoverInstallDb() can rebuild the
  /// per-vehicle tables from the sink's image.  The sink must outlive
  /// the server; nullptr (default) keeps the server memory-only.
  support::RecordSink* status_sink = nullptr;
  /// Durability knob for the status DB: issue a RecordSink::Sync() (for
  /// FileSink: fflush + fsync) every N appended frames.  0 (default)
  /// never syncs explicitly — the crash model tests exercise is process
  /// death, not power loss.
  std::size_t status_sync_every_n_frames = 0;
  /// Compaction watermark: once the status log has grown past this many
  /// bytes since the last checkpoint, the next ack flush folds the live
  /// state (catalog image + one paragraph per row) into a checkpoint and
  /// rotates the log onto it (RecordSink::Rotate).  0 (default) disables
  /// automatic compaction; Compact() can always be called explicitly
  /// (e.g. on clean shutdown).
  std::uint64_t compact_after_bytes = 0;
};

/// Outcome of one DeployCampaign call.
struct CampaignReport {
  std::size_t deployed = 0;  // batch pushed; rows are kPending until acked
  std::size_t rejected = 0;
  /// Per-VIN rejection reasons, in fleet order.
  std::vector<std::pair<std::string, support::Status>> failures;
  /// Processing time per vehicle (ns), in fleet order: compatibility
  /// checks, context generation, package assembly and push.  Used for
  /// tail-latency tracking.
  std::vector<std::uint64_t> per_vehicle_ns;
};

class TrustedServer {
 public:
  TrustedServer(sim::Network& network, std::string address,
                ServerOptions options = {});

  /// Unlistens and closes every Pusher connection.  Scheduled callbacks
  /// that captured this server (accept, ack flush, deliveries in flight)
  /// are disarmed — a mid-campaign kill leaves inert events, and the
  /// recovery harness can construct a successor on the same address in
  /// the same simulator event.
  ~TrustedServer();

  TrustedServer(const TrustedServer&) = delete;
  TrustedServer& operator=(const TrustedServer&) = delete;

  /// Starts the Pusher listener.
  support::Status Start();

  // --- Web Services: user setup ------------------------------------------------

  support::Result<UserId> CreateUser(const std::string& name);

  /// Binds a vehicle (by VIN, of a previously uploaded model) to a user.
  support::Status BindVehicle(UserId user, const std::string& vin,
                              const std::string& model);

  // --- Web Services: uploads ------------------------------------------------------

  /// OEM upload: HW conf + SystemSW conf for a vehicle model.
  support::Status UploadVehicleModel(VehicleModelConf conf);

  /// Developer upload: APP with binaries and SW confs.  Re-uploading the
  /// same name with a higher version replaces the stored APP.  Apps are
  /// capped at 64 plug-ins (install rows track acks in one 64-bit mask).
  support::Status UploadApp(App app);

  // --- Web Services: operations -----------------------------------------------------

  /// Deploys `app_name` onto `vin`: compatibility check, dependency /
  /// conflict check, context generation, then one push of the cached
  /// kInstallBatch carrying every plug-in's package (the ECM unpacks it
  /// and acknowledges each plug-in).  On success the InstalledAPP row is
  /// kPending until all acks arrive; a failed push leaves no row.
  support::Status Deploy(UserId user, const std::string& vin,
                         const std::string& app_name);

  /// Fleet-wide OTA campaign: deploys `app_name` to every VIN in `vins`,
  /// in order, exactly as Deploy does for one.  Per-vehicle
  /// rejections land in the report; only a missing app fails the whole
  /// campaign.
  support::Result<CampaignReport> DeployCampaign(UserId user,
                                                 const std::string& app_name,
                                                 std::span<const std::string> vins);

  /// Uninstalls an app with one push of the manifest's kUninstallBatch
  /// (the ECM unpacks it into per-plug-in uninstalls); the row is
  /// kUninstalling until every plug-in acks.  Fails with
  /// kDependencyViolation when other installed apps depend on it (the
  /// paper notifies the user instead of cascading), and with kUnavailable
  /// when the vehicle is offline — the row then keeps its state.
  support::Status UninstallApp(UserId user, const std::string& vin,
                               const std::string& app_name);

  /// Restore after physical ECU replacement: re-pushes the recorded
  /// packages of every installed plug-in placed on `ecu_id`, one
  /// kInstallPackage each (a whole-row batch would re-install the
  /// plug-ins on the healthy ECUs).  Refused (kFailedPrecondition,
  /// nothing pushed or recorded) while an app with a plug-in there is
  /// being uninstalled.
  support::Status Restore(UserId user, const std::string& vin, std::uint32_t ecu_id);

  // --- recovery ---------------------------------------------------------------

  /// Rebuilds the server from a status-DB image (StatusDb::ReplayImage):
  /// first the catalog — users, models, apps (with binaries) and VIN
  /// bindings are themselves write-ahead-logged as catalog records and
  /// folded into checkpoints, so a recovered server is serviceable
  /// without re-uploads — then the per-vehicle InstalledApp tables from
  /// the status paragraphs.  Catalog restore is an idempotent merge: a
  /// caller that already re-created users / re-uploaded apps / re-bound
  /// VINs (the pre-checkpoint recovery drill) keeps its live entries.
  /// Rows come back carrying their recorded (plugin, ecu, unique-id)
  /// manifest; package bytes and batch envelopes are NOT restored — they
  /// regenerate lazily from the recovered catalog the first time a wave
  /// needs them (MaterializeRowPackages).  Fails on a paragraph whose
  /// VIN is neither in the recovered catalog's bindings nor re-bound by
  /// the caller.  Simulation thread only, before any vehicle traffic.
  support::Status RecoverInstallDb(std::span<const std::uint8_t> image);

  /// Folds the live state — full catalog image plus one status paragraph
  /// per install row — into a checkpoint and atomically rotates the
  /// status log onto it (RecordSink::Rotate: write temp, sync, rename).
  /// The log shrinks to exactly the live bytes; replaying it afterwards
  /// reproduces the same server.  No-op Ok without a status sink.  Call
  /// on clean shutdown, or let ServerOptions::compact_after_bytes
  /// trigger it from ack flushes.  Simulation thread only.
  support::Status Compact();

  /// Deterministic fingerprint text of the whole fleet: every bound
  /// vehicle (sorted by VIN) with its model, owner and install rows
  /// (sorted by app).  The crash-point harness compares exactly this
  /// across kill/recover boundaries.  Simulation thread only.
  std::string DescribeFleet() const;
  /// FNV-1a hash of exactly the bytes DescribeFleet() would return,
  /// streamed without materializing the string.
  std::uint64_t FleetFingerprint() const;

  // --- campaign-engine entry points (see server/campaign.hpp) -----------------

  /// Resolves `vin` to its FleetStore handle, or FleetStore::kNil if the
  /// server has never seen it (one hash of the VIN; the campaign engine
  /// pays it once per row, not once per tick).  Handles are append-only
  /// and never invalidated; a handle says nothing about binding —
  /// consumers check that on every use.
  std::uint32_t ResolveVehicle(std::string_view vin) const;

  /// Campaign-evaluation probe of `app_name` on a resolved vehicle.
  /// Builds no Status and no string — AppState is for one-off queries.
  RowProbe ProbeRow(std::uint32_t vehicle, std::string_view app_name) const;

  /// One orchestrated campaign wave: per target, performs whatever the
  /// kind requires right now — a fresh deploy, a re-push of the
  /// recorded batch for a stale kPending row, a clear-and-redeploy of a
  /// nacked row, or a kUninstallBatch rollback push — in `targets` order,
  /// like DeployCampaign.  Targets must come from
  /// ResolveVehicle (an unresolved one is rejected as an unknown VIN).
  /// Every install payload the wave built (a fresh deploy or a re-push
  /// that missed the cache; never a hit) is appended to `built`: the
  /// caller holds them until its campaign finishes, so its later waves
  /// re-push the same bytes instead of rebuilding them once the first
  /// wave's rows converge.  Rollback waves build nothing.
  /// Returns outcomes in `targets` order.
  std::vector<WaveOutcome> CampaignWavePush(UserId user,
                                            const std::string& app_name,
                                            CampaignKind kind,
                                            std::span<const WaveTarget> targets,
                                            PayloadPins& built);

  /// Applies every staged acknowledgement now, in arrival order.  Inbound
  /// kAck/kAckBatch messages are staged into one inbox and normally
  /// applied by a flush event the server schedules at the arrival
  /// timestamp.  Explicit calls are only needed to observe ack state
  /// without running events.
  void FlushAckInboxes();

  // --- queries --------------------------------------------------------------------

  support::Result<InstallState> AppState(const std::string& vin,
                                         const std::string& app_name) const;
  std::vector<std::string> InstalledApps(const std::string& vin) const;
  /// Materialized snapshot of one vehicle's state (nullptr for unknown
  /// VINs).  The live representation is columnar; this view exists for
  /// tests and diagnostics — do not call it per vehicle at fleet scale.
  std::shared_ptr<const Vehicle> FindVehicle(const std::string& vin) const;
  /// Cheap existence probe (no row materialization).
  bool HasVehicle(const std::string& vin) const;
  bool VehicleOnline(const std::string& vin) const;
  bool HasApp(const std::string& app_name) const;
  const ServerStats& stats() const { return stats_; }
  /// Cumulative wall time spent inside ack-inbox flushes.  bench_fleet
  /// reports it as a share of the campaign's wall time.
  std::uint64_t ack_flush_nanos() const { return flush_ns_; }
  /// Content-addressed package cache (diagnostics/tests).
  const PackageCache& package_cache() const { return cache_; }
  const std::string& address() const { return address_; }

 private:
  /// One inbound acknowledgement, staged at delivery and applied at the
  /// next flush.  The staged entry keeps the delivered envelope buffer
  /// alive by refcount and stores the message view (aliasing that
  /// buffer) — no copy per ack.
  struct StagedAck {
    /// Vehicle handle, resolved at staging time; kNil for unknown/unbound
    /// VINs.
    std::uint32_t vehicle = FleetStore::kNil;
    /// Aliases the envelope buffer below or the store's VIN arena.
    std::string_view vin;
    support::SharedBytes envelope;  // the delivered buffer
    /// The embedded kAck/kAckBatch bytes, in place.  Routing only peeks
    /// the type byte; the full parse happens at the flush.
    std::span<const std::uint8_t> message;
  };

  /// Adds this server's ServerStats (and cache stats) growth since its
  /// last fold to the process metrics registry.  Called after each ack
  /// flush and campaign — the counters stay plain fields on the hot
  /// path; only the fold touches the registry.
  void FoldStatsToMetrics();

  support::Status CheckOwnership(UserId user, UserId owner,
                                 std::string_view vin) const;
  support::Result<const VehicleModelConf*> ModelConf(const std::string& model) const;
  /// Name of an interned model id.
  const std::string& ModelName(std::uint16_t model_id) const {
    return model_names_[model_id];
  }

  /// The full per-vehicle deploy pipeline on a resolved handle (kNil or
  /// unbound: rejected as an unknown VIN), shared by Deploy,
  /// DeployCampaign and deploy waves: checks, cached batch acquisition,
  /// write-ahead row, one kInstallBatch push (rolled back if it fails).
  /// A payload the acquisition built is appended to `built` when non-null
  /// (deploy waves; see CampaignWavePush).
  support::Status DeployVehicle(UserId user, std::uint32_t vehicle,
                                std::string_view vin, const App& app,
                                PayloadPins* built);

  /// One target of a campaign wave; `app` is null for rollback waves.
  WaveOutcome WavePushTarget(UserId user, const WaveTarget& target,
                             const std::string& app_name, const App* app,
                             CampaignKind kind, PayloadPins& built);
  /// The uninstall push shared by UninstallApp and rollback waves: writes
  /// the half-removed paragraph, marks the row kUninstalling, pushes the
  /// manifest's kUninstallBatch and resets the ack masks.  A failed push
  /// snaps the row back to its previous state and re-records it.
  support::Status PushUninstall(std::uint32_t vehicle, std::string_view vin,
                                std::uint32_t row);
  /// Re-pushes the install batch of a stale kPending row (previous
  /// wave's acks were lost), resetting its ack masks.  Rematerializes the
  /// payload — dropped on convergence, never persisted — before pushing,
  /// so it never sends an empty wire; a payload that rebuilt goes to
  /// `built`.
  support::Status RepushInstallBatch(std::uint32_t vehicle, std::uint32_t row,
                                     PayloadPins& built);
  /// Regenerates `row`'s packages from the catalog: derives the occupied ids
  /// of the vehicle's *other* rows, acquires the cached batch for that
  /// layout (deterministic generation reproduces the recorded ids when
  /// nothing shifted), and records the refreshed paragraph.  Used when
  /// the payload is absent — after RecoverInstallDb, or when convergence
  /// dropped it.  A payload the acquisition built is appended to `built`
  /// when non-null.
  support::Status MaterializeRowPackages(std::uint32_t vehicle,
                                         std::uint32_t row,
                                         PayloadPins* built);
  /// Names of installed apps that depend on `app_name` ("" when none).
  std::string DependentsOf(std::uint32_t vehicle,
                           const std::string& app_name) const;

  // Pusher internals.
  void OnAccept(std::shared_ptr<sim::NetPeer> peer);
  /// Installs `peer`'s receive handler.  The handler owns the
  /// connection's link — the vehicle handle its Hello announced (kNil
  /// until then) — so the link lives and dies with the connection.
  /// Re-attaching is how a reaped connection forgets its Hello: messages
  /// still in flight on it must name their VIN to be routed.
  void AttachReceiveHandler(sim::NetPeer& peer);
  void OnVehicleMessage(sim::NetPeer* peer, std::uint32_t& link,
                        const support::SharedBytes& data);
  /// Schedules the ack-inbox flush event at Now() (once per batch of
  /// arrivals).
  void ScheduleAckFlush();
  /// Pushes one per-plug-in message (Restore only) over `peer`, the
  /// vehicle's first live connection (FleetStore::FirstConnectedPeer);
  /// null means offline (kUnavailable).
  support::Status PushToVehicle(sim::NetPeer* peer, std::string_view vin,
                                const pirte::PirteMessageView& message);
  /// Pushes an already-serialized envelope (the cached install and
  /// uninstall batches are pushed this way: one refcount bump, no
  /// serialization).
  support::Status PushWireToVehicle(sim::NetPeer* peer, std::string_view vin,
                                    const support::SharedBytes& wire);

  // Ack application (flush phase).
  void ApplyStagedAck(const StagedAck& staged);
  void ApplyAck(std::uint32_t vehicle, std::string_view plugin, bool ok);
  /// A failed kAckBatch: the vehicle rejected an entire campaign push;
  /// fails the named app's pending row (or re-arms an uninstalling row).
  void ApplyBatchNack(std::uint32_t vehicle, std::string_view app_name,
                      std::string_view detail);

  // Write-ahead status DB (no-ops when options_.status_sink is null).
  // Sink errors degrade durability, never availability: bounded retries,
  // then a sticky degraded flag and a warn — the in-memory transition
  // proceeds either way.
  // Both encode into wal_buffer_ (StatusDb's view encoder).
  void WriteStatus(std::string_view vin, const FleetStore::InstallRow& row,
                   Want want, DbState state);
  /// The tombstone: erases (vin, app) on replay.
  void WriteStatusRemoved(std::string_view vin, std::string_view app_name,
                          std::string_view version, Want want);
  /// Appends the record in wal_buffer_ (AppendDurable) and traces it on
  /// the per-vehicle lane.
  void AppendStatusRecord(std::string_view vin);
  /// Appends one pre-encoded record with the bounded retry-then-degrade
  /// policy above.
  support::Status AppendDurable(std::span<const std::uint8_t> payload);
  /// Merges a recovered catalog image into the live catalog.  Idempotent
  /// against entries the caller already re-created; errors only on a
  /// genuine conflict (same user index, different name).
  support::Status RestoreCatalog(const CatalogImage& image);
  /// Runs Compact() once the watermark is crossed (warn on failure).
  /// Called from FlushAckInboxes after the acks are applied — the one
  /// recurring hook every campaign path funnels through.
  void MaybeCompact();
  /// Streams the DescribeFleet() text into `sink` (one
  /// Append(string_view) per fragment) — single formatter behind
  /// DescribeFleet and FleetFingerprint so they can never drift.
  template <typename Sink>
  void FormatFleet(Sink& sink) const;

  sim::Network& network_;
  std::string address_;
  ServerOptions options_;
  bool started_ = false;

  // Catalog.
  std::vector<User> users_;
  std::unordered_map<std::string, VehicleModelConf> models_;   // by model name
  std::unordered_map<std::string, App> apps_;                  // by app name
  /// Model-name interner: vehicles store a u16 id, not a string.
  std::vector<std::string> model_names_;
  std::unordered_map<std::string, std::uint16_t> model_ids_;

  /// Content-addressed batch cache.
  PackageCache cache_;
  /// Reused by every Acquire: a vehicle's id layout is derived into it,
  /// so a cache hit allocates nothing.
  IdLayout layout_scratch_;

  /// Packed columnar vehicle/row/connection state (fleet_store.hpp).
  FleetStore store_;
  ServerStats stats_;
  /// Status-record scratch: every paragraph the server writes is encoded
  /// here, so steady-state WAL appends allocate nothing.
  support::Bytes wal_buffer_;
  /// Accepted connections that have not announced a VIN yet.
  std::vector<std::shared_ptr<sim::NetPeer>> pending_;
  /// Acks staged since the last flush, in arrival order.
  std::vector<StagedAck> ack_inbox_;
  bool ack_flush_scheduled_ = false;
  std::uint64_t flush_ns_ = 0;  // total wall time inside FlushAckInboxes

  /// Append side of the durable install DB (set iff options_.status_sink).
  std::unique_ptr<StatusDb> status_db_;
  /// Weak-referenced by accept/flush callbacks and in-flight SYNs: they
  /// go inert when the server is destroyed instead of dangling.
  std::shared_ptr<const bool> alive_ = std::make_shared<bool>(true);
  /// The stats as of the last FoldStatsToMetrics: the next fold adds
  /// only the growth since.
  ServerStats folded_stats_;
  PackageCache::Stats folded_cache_stats_;
};

}  // namespace dacm::server
