#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "pirte/package.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/sink.hpp"
#include "support/string_util.hpp"
#include "support/trace.hpp"

namespace dacm::server {

namespace {

/// Registry references bound once (the lookup mutex is paid here only);
/// hot-path observations are relaxed atomics on these.
struct ServerMetrics {
  support::Counter& packages_pushed;
  support::Counter& acks_received;
  support::Counter& nacks_received;
  support::Counter& deploys_ok;
  support::Counter& deploys_rejected;
  support::Counter& uninstalls;
  support::Counter& restores;
  support::Counter& repushes;
  support::Counter& rollback_pushes;
  support::Counter& connections_reaped;
  support::Counter& status_write_retries;
  support::Counter& status_writes_lost;
  support::Counter& compactions;
  support::Gauge& durability_degraded;
  /// PackageCache::Stats: live-payload hits, new variants, expired
  /// payloads regenerated.
  support::Counter& cache_hits;
  support::Counter& cache_variants;
  support::Counter& cache_regenerations;
  /// Sim-time push→converged-ack round trip per install row (µs).
  support::Histogram& deploy_roundtrip_us;
  /// Wall time of each ack-inbox flush (ns) — real time, so
  /// histogram-only, never traced.
  support::Histogram& ack_flush_nanos;
  /// Encoded status-record sizes written ahead of row transitions.
  support::Histogram& wal_append_bytes;
  /// Wall time per vehicle in DeployCampaign (checks, context
  /// generation, package assembly, push).
  support::Histogram& deploy_push_nanos;

  static ServerMetrics& Get() {
    auto& registry = support::Metrics::Instance();
    static ServerMetrics metrics{
        registry.GetCounter("dacm_server_packages_pushed_total"),
        registry.GetCounter("dacm_server_acks_received_total"),
        registry.GetCounter("dacm_server_nacks_received_total"),
        registry.GetCounter("dacm_server_deploys_ok_total"),
        registry.GetCounter("dacm_server_deploys_rejected_total"),
        registry.GetCounter("dacm_server_uninstalls_total"),
        registry.GetCounter("dacm_server_restores_total"),
        registry.GetCounter("dacm_server_repushes_total"),
        registry.GetCounter("dacm_server_rollback_pushes_total"),
        registry.GetCounter("dacm_server_connections_reaped_total"),
        registry.GetCounter("dacm_server_status_write_retries_total"),
        registry.GetCounter("dacm_server_status_writes_lost_total"),
        registry.GetCounter("dacm_server_compactions_total"),
        registry.GetGauge("dacm_server_durability_degraded"),
        registry.GetCounter("dacm_package_cache_hits_total"),
        registry.GetCounter("dacm_package_cache_variants_total"),
        registry.GetCounter("dacm_package_cache_regenerations_total"),
        registry.GetHistogram("dacm_deploy_roundtrip_us"),
        registry.GetHistogram("dacm_ack_flush_nanos"),
        registry.GetHistogram("dacm_wal_append_bytes"),
        registry.GetHistogram("dacm_deploy_push_nanos"),
    };
    return metrics;
  }
};

/// Restore's per-plug-in push: `plugin`'s package view (into the cached
/// batch wire) as a kInstallPackage message.
pirte::PirteMessageView PluginInstallMessage(
    const BatchManifest::Plugin& plugin, std::span<const std::uint8_t> package) {
  pirte::PirteMessageView message;
  message.type = pirte::MessageType::kInstallPackage;
  message.plugin_name = plugin.name;
  message.target_ecu = plugin.ecu_id;
  message.payload = package;
  return message;
}

/// Status-DB encoding of an in-memory InstallState (the paragraph written
/// when a push fails and the row snaps back to its previous state).
Want WantFor(InstallState state) {
  return state == InstallState::kUninstalling ? Want::kDeinstall : Want::kInstall;
}

DbState DbStateFor(InstallState state) {
  switch (state) {
    case InstallState::kPending: return DbState::kHalfInstalled;
    case InstallState::kInstalled: return DbState::kInstalled;
    case InstallState::kFailed: return DbState::kErrorState;
    case InstallState::kUninstalling: return DbState::kHalfRemoved;
  }
  return DbState::kErrorState;
}

constexpr std::uint32_t kNil = FleetStore::kNil;

/// Trace track of the per-vehicle events (WAL appends, deploy round
/// trips); lane 0 carries the server-wide events.
constexpr std::uint32_t kFleetLane = 1;

/// All-acked mask for an n-plug-in row (UploadApp caps n at 64).
std::uint64_t FullMask(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

bool RowAllAcked(const FleetStore::InstallRow& row) {
  return row.acked == FullMask(row.manifest->plugins.size());
}

bool RowAnyFailed(const FleetStore::InstallRow& row) {
  return (row.acked & ~row.ack_ok) != 0;
}

/// Bounded status-log retry budget before the server declares durability
/// degraded.  Small and fixed: the sinks are local (file / memory), so a
/// failure that survives three immediate retries is not transient.
constexpr int kStatusRetryBudget = 3;

}  // namespace

std::string_view InstallStateName(InstallState state) {
  switch (state) {
    case InstallState::kPending: return "pending";
    case InstallState::kInstalled: return "installed";
    case InstallState::kFailed: return "failed";
    case InstallState::kUninstalling: return "uninstalling";
  }
  return "?";
}

TrustedServer::TrustedServer(sim::Network& network, std::string address,
                             ServerOptions options)
    : network_(network),
      address_(std::move(address)),
      options_(options) {
  if (options_.status_sink != nullptr) {
    status_db_ = std::make_unique<StatusDb>(*options_.status_sink,
                                            options_.status_sync_every_n_frames);
  }
}

TrustedServer::~TrustedServer() {
  // Disarm first: scheduled callbacks holding the weak alive_ token
  // (accept handler, ack flush, in-flight SYNs) see it expired and go
  // inert instead of dereferencing a dead server.
  alive_.reset();
  if (started_) (void)network_.Unlisten(address_);
  // Drop receive handlers before closing: a delivery already scheduled
  // for a later timestamp null-checks the handler and is absorbed.
  store_.ForEachPeer([](const std::shared_ptr<sim::NetPeer>& peer) {
    peer->SetReceiveHandler(nullptr);
    peer->Close();
  });
  for (const std::shared_ptr<sim::NetPeer>& peer : pending_) {
    peer->SetReceiveHandler(nullptr);
    peer->Close();
  }
  pending_.clear();
}

support::Status TrustedServer::Start() {
  if (started_) return support::FailedPrecondition("server already started");
  // The SYN event copies this handler, so it can fire after the listener
  // is gone (server killed with a connect in flight) — the alive token
  // turns that into a no-op.
  DACM_RETURN_IF_ERROR(network_.Listen(
      address_, [this, alive = std::weak_ptr<const bool>(alive_)](
                    std::shared_ptr<sim::NetPeer> peer) {
        if (alive.expired()) return;
        OnAccept(std::move(peer));
      }));
  started_ = true;
  return support::OkStatus();
}

// --- user setup -------------------------------------------------------------------

support::Result<UserId> TrustedServer::CreateUser(const std::string& name) {
  for (const User& user : users_) {
    if (user.name == name) return support::AlreadyExists("user: " + name);
  }
  users_.push_back(User{name, {}});
  const auto id = static_cast<std::uint32_t>(users_.size() - 1);
  if (status_db_ != nullptr) (void)AppendDurable(EncodeCatalogUser(id, name));
  return UserId(id);
}

support::Status TrustedServer::BindVehicle(UserId user, const std::string& vin,
                                           const std::string& model) {
  if (user.value() >= users_.size()) return support::NotFound("unknown user");
  const std::uint32_t existing = store_.Find(vin);
  if (existing != kNil && store_.bound(existing)) {
    return support::AlreadyExists("VIN already bound: " + vin);
  }
  auto model_it = model_ids_.find(model);
  if (model_it == model_ids_.end()) {
    return support::NotFound("vehicle model: " + model);
  }
  // The handle may already exist (the ECM's Hello can race the binding);
  // binding just fills the model/owner columns.
  store_.Bind(store_.Intern(vin), model_it->second, user);
  users_[user.value()].vins.push_back(vin);
  if (status_db_ != nullptr) {
    (void)AppendDurable(EncodeCatalogBinding(vin, model, user.value()));
  }
  return support::OkStatus();
}

// --- uploads -----------------------------------------------------------------------

support::Status TrustedServer::UploadVehicleModel(VehicleModelConf conf) {
  if (conf.model.empty()) return support::InvalidArgument("model name empty");
  if (!model_ids_.contains(conf.model)) {
    model_ids_.emplace(conf.model,
                       static_cast<std::uint16_t>(model_names_.size()));
    model_names_.push_back(conf.model);
  }
  // Encode before the move below consumes the conf.
  support::Bytes record;
  if (status_db_ != nullptr) record = EncodeCatalogModel(conf);
  models_[conf.model] = std::move(conf);
  if (status_db_ != nullptr) (void)AppendDurable(record);
  return support::OkStatus();
}

support::Status TrustedServer::UploadApp(App app) {
  if (app.name.empty()) return support::InvalidArgument("app name empty");
  if (app.plugins.empty()) return support::InvalidArgument("app has no plug-ins");
  if (app.plugins.size() > 64) {
    return support::InvalidArgument("app " + app.name +
                                    " has more than 64 plug-ins");
  }
  auto it = apps_.find(app.name);
  if (it != apps_.end() &&
      support::CompareVersions(app.version, it->second.version) <= 0) {
    return support::AlreadyExists("app " + app.name + " v" + it->second.version +
                                  " already stored with same or newer version");
  }
  // Encode before the move below consumes the app (binaries inline — an
  // incremental record must be self-contained; only the checkpoint image
  // dedupes them into a pool).
  support::Bytes record;
  if (status_db_ != nullptr) record = EncodeCatalogApp(app);
  apps_[app.name] = std::move(app);
  if (status_db_ != nullptr) (void)AppendDurable(record);
  return support::OkStatus();
}

// --- operations -----------------------------------------------------------------------

support::Status TrustedServer::DeployVehicle(UserId user,
                                             std::uint32_t vehicle,
                                             std::string_view vin,
                                             const App& app,
                                             PayloadPins* built) {
  if (vehicle == kNil || !store_.bound(vehicle)) {
    return support::NotFound("VIN: " + std::string(vin));
  }
  DACM_RETURN_IF_ERROR(CheckOwnership(user, store_.owner(vehicle), vin));
  if (store_.FindRow(vehicle, app.name) != kNil) {
    ++stats_.deploys_rejected;
    return support::AlreadyExists("app already installed: " + app.name);
  }

  const std::string& model_name = ModelName(store_.model(vehicle));
  // Compatibility: a SW conf for this vehicle model must exist...
  const SwConf* conf = app.ConfForModel(model_name);
  if (conf == nullptr) {
    ++stats_.deploys_rejected;
    return support::Incompatible("no SW conf for vehicle model " + model_name);
  }
  DACM_ASSIGN_OR_RETURN(const VehicleModelConf* model, ModelConf(model_name));
  // ...the platform must be recent enough...
  if (!conf->min_platform.empty() &&
      support::CompareVersions(model->sw.platform_version, conf->min_platform) < 0) {
    ++stats_.deploys_rejected;
    return support::Incompatible("platform " + model->sw.platform_version +
                                 " older than required " + conf->min_platform);
  }
  // ...every required virtual port must be exposed...
  for (const std::string& required : conf->required_virtual_ports) {
    if (model->sw.FindByName(required) == nullptr) {
      ++stats_.deploys_rejected;
      return support::Incompatible("vehicle lacks required virtual port " + required);
    }
  }
  // ...placements must target plug-in-capable ECUs...
  for (const PlacementDecl& placement : conf->placements) {
    const EcuInfo* ecu = model->hw.FindEcu(placement.ecu_id);
    if (ecu == nullptr || !ecu->has_plugin_swc) {
      ++stats_.deploys_rejected;
      return support::Incompatible("ECU " + std::to_string(placement.ecu_id) +
                                   " cannot host plug-ins");
    }
  }
  // ...then dependencies: pre-requisite apps must be installed...
  for (const std::string& dependency : app.depends_on) {
    const std::uint32_t dep = store_.FindRow(vehicle, dependency);
    if (dep == kNil || store_.row(dep).state != InstallState::kInstalled) {
      ++stats_.deploys_rejected;
      return support::DependencyViolation("requires app " + dependency +
                                          " to be installed first");
    }
  }
  // ...and no conflicts in either direction.
  for (const std::string& conflict : app.conflicts_with) {
    if (store_.FindRow(vehicle, conflict) != kNil) {
      ++stats_.deploys_rejected;
      return support::DependencyViolation("conflicts with installed app " + conflict);
    }
  }
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    const std::string& installed_name = store_.row(r).manifest->app_name;
    auto other = apps_.find(installed_name);
    if (other == apps_.end()) continue;
    const auto& conflicts = other->second.conflicts_with;
    if (std::find(conflicts.begin(), conflicts.end(), app.name) != conflicts.end()) {
      ++stats_.deploys_rejected;
      return support::DependencyViolation("installed app " + installed_name +
                                          " conflicts with " + app.name);
    }
  }

  // The Pusher needs a live connection; reject before any state changes so
  // a retry starts from a clean table.  The peer found here is the one
  // every push below uses (no connection changes under this call).
  sim::NetPeer* peer = store_.FirstConnectedPeer(vehicle);
  if (peer == nullptr) {
    ++stats_.deploys_rejected;
    return support::Unavailable("vehicle offline: " + std::string(vin));
  }

  // Content-addressed batch acquisition: generation + serialization run
  // once per distinct (model, app, version, id-layout); every other
  // vehicle of the cohort reuses the cached manifest/payload by refcount.
  store_.DeriveLayout(vehicle, layout_scratch_);
  DACM_ASSIGN_OR_RETURN(
      CachedBatch batch,
      cache_.Acquire(model_name, app, *conf, model->sw, layout_scratch_));
  if (batch.built && built != nullptr) built->push_back(batch.payload);

  // Record + push.
  const std::uint32_t r = store_.AddRow(vehicle);
  FleetStore::InstallRow& row = store_.row(r);
  row.state = InstallState::kPending;
  row.manifest = batch.manifest;
  row.payload = batch.payload;
  // Write-ahead: the half-installed paragraph hits the status DB before
  // the push leaves, so a crash between push and ack recovers into a
  // retriable kPending row instead of a silently lost deploy.
  WriteStatus(vin, row, Want::kInstall, DbState::kHalfInstalled);

  auto rollback = [&](const support::Status& error) {
    // Roll back the uncommitted row: a failed deploy must leave no trace
    // (a stale row would block retries and pin batch refcounts).  The
    // tombstone undoes the write-ahead paragraph above.
    WriteStatusRemoved(vin, app.name, app.version, Want::kInstall);
    store_.RemoveRow(vehicle, r);
    ++stats_.deploys_rejected;
    return error;
  };

  // Push the cached batch envelope — a refcount bump, no per-vehicle
  // serialization at all; the ECM unpacks it into per-plug-in packages.
  if (auto push = PushWireToVehicle(peer, vin, batch.payload->install_wire);
      !push.ok()) {
    return rollback(push);
  }
  // Sim time of the wire push: the convergence path turns this into the
  // push→ack round-trip histogram and trace span.
  row.pushed_at = network_.simulator().Now();
  ++stats_.deploys_ok;
  DACM_LOG_INFO("server") << "deploy " << app.name << " -> " << vin << " ("
                          << batch.manifest->plugins.size() << " plug-ins)";
  return support::OkStatus();
}

support::Status TrustedServer::Deploy(UserId user, const std::string& vin,
                                      const std::string& app_name) {
  auto app_it = apps_.find(app_name);
  if (app_it == apps_.end()) {
    // Match the historic accounting: an unknown app only counts as a
    // rejection when the vehicle at least exists.
    const std::uint32_t vehicle = store_.Find(vin);
    if (vehicle != kNil && store_.bound(vehicle)) {
      ++stats_.deploys_rejected;
    }
    return support::NotFound("app: " + app_name);
  }
  return DeployVehicle(user, store_.Find(vin), vin, app_it->second,
                       /*built=*/nullptr);
}

support::Result<CampaignReport> TrustedServer::DeployCampaign(
    UserId user, const std::string& app_name, std::span<const std::string> vins) {
  auto app_it = apps_.find(app_name);
  if (app_it == apps_.end()) return support::NotFound("app: " + app_name);
  const App& app = app_it->second;

  // Fleet order: pushes leave (and acks come back) in the order the
  // caller listed the VINs.
  CampaignReport report;
  report.per_vehicle_ns.reserve(vins.size());
  ServerMetrics& metrics = ServerMetrics::Get();
  for (const std::string& vin : vins) {
    const auto start = std::chrono::steady_clock::now();
    auto status =
        DeployVehicle(user, store_.Find(vin), vin, app, /*built=*/nullptr);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    metrics.deploy_push_nanos.Observe(ns);
    report.per_vehicle_ns.push_back(ns);
    if (!status.ok()) {
      ++report.rejected;
      report.failures.emplace_back(vin, std::move(status));
    }
  }
  report.deployed = vins.size() - report.rejected;
  FoldStatsToMetrics();
  return report;
}

namespace {

WaveOutcome ClassifyPush(support::Status status) {
  if (status.ok()) return WaveOutcome{WaveOutcome::Action::kPushed, {}};
  const auto action = status.code() == support::ErrorCode::kUnavailable
                          ? WaveOutcome::Action::kOffline
                          : WaveOutcome::Action::kRejected;
  return WaveOutcome{action, std::move(status)};
}

}  // namespace

std::uint32_t TrustedServer::ResolveVehicle(std::string_view vin) const {
  return store_.Find(vin);
}

RowProbe TrustedServer::ProbeRow(std::uint32_t vehicle,
                                 std::string_view app_name) const {
  if (vehicle == kNil || !store_.bound(vehicle)) return RowProbe::kNoVehicle;
  const std::uint32_t r = store_.FindRow(vehicle, app_name);
  if (r == kNil) return RowProbe::kNoRow;
  switch (store_.row(r).state) {
    case InstallState::kPending: return RowProbe::kPending;
    case InstallState::kInstalled: return RowProbe::kInstalled;
    case InstallState::kFailed: return RowProbe::kFailed;
    case InstallState::kUninstalling: return RowProbe::kUninstalling;
  }
  return RowProbe::kNoRow;
}

std::vector<WaveOutcome> TrustedServer::CampaignWavePush(
    UserId user, const std::string& app_name, CampaignKind kind,
    std::span<const WaveTarget> targets, PayloadPins& built) {
  std::vector<WaveOutcome> outcomes(targets.size());
  const App* app = nullptr;
  if (kind == CampaignKind::kDeploy) {
    auto app_it = apps_.find(app_name);
    if (app_it == apps_.end()) {
      for (WaveOutcome& outcome : outcomes) {
        outcome = WaveOutcome{WaveOutcome::Action::kRejected,
                              support::NotFound("app: " + app_name)};
      }
      return outcomes;
    }
    app = &app_it->second;
  }

  for (std::size_t i = 0; i < targets.size(); ++i) {
    outcomes[i] = WavePushTarget(user, targets[i], app_name, app, kind, built);
  }
  return outcomes;
}

WaveOutcome TrustedServer::WavePushTarget(UserId user,
                                          const WaveTarget& target,
                                          const std::string& app_name,
                                          const App* app, CampaignKind kind,
                                          PayloadPins& built) {
  const std::uint32_t vehicle = target.vehicle;
  const std::string_view vin = target.vin;
  if (vehicle == kNil || !store_.bound(vehicle)) {
    return WaveOutcome{WaveOutcome::Action::kRejected,
                       support::NotFound("VIN: " + std::string(vin))};
  }
  if (auto owned = CheckOwnership(user, store_.owner(vehicle), vin);
      !owned.ok()) {
    return WaveOutcome{WaveOutcome::Action::kRejected, std::move(owned)};
  }

  if (kind == CampaignKind::kRollback) {
    const std::uint32_t r = store_.FindRow(vehicle, app_name);
    if (r == kNil) return WaveOutcome{WaveOutcome::Action::kAlreadyDone, {}};
    if (std::string dependents = DependentsOf(vehicle, app_name);
        !dependents.empty()) {
      return WaveOutcome{
          WaveOutcome::Action::kRejected,
          support::DependencyViolation("apps depending on " + app_name +
                                       " must be uninstalled first: " +
                                       dependents)};
    }
    auto push = PushUninstall(vehicle, vin, r);
    if (push.ok()) ++stats_.rollback_pushes;
    return ClassifyPush(std::move(push));
  }

  // Deploy wave.
  if (const std::uint32_t r = store_.FindRow(vehicle, app_name); r != kNil) {
    FleetStore::InstallRow& row = store_.row(r);
    switch (row.state) {
      case InstallState::kInstalled:
        return WaveOutcome{WaveOutcome::Action::kAlreadyDone, {}};
      case InstallState::kUninstalling:
        return WaveOutcome{
            WaveOutcome::Action::kRejected,
            support::FailedPrecondition("uninstall of " + app_name +
                                        " in progress on " + std::string(vin))};
      case InstallState::kPending:
        // Pushed in an earlier wave but the acks never came back (link
        // flap): re-push the recorded batch verbatim.
        return ClassifyPush(RepushInstallBatch(vehicle, r, built));
      case InstallState::kFailed: {
        // A nacked row blocks redeployment; clear it and fall through to
        // a fresh deploy.
        WriteStatusRemoved(vin, row.manifest->app_name,
                           row.manifest->version, Want::kInstall);
        store_.RemoveRow(vehicle, r);
        break;
      }
    }
  }
  return ClassifyPush(DeployVehicle(user, vehicle, vin, *app, &built));
}

support::Status TrustedServer::PushUninstall(std::uint32_t vehicle,
                                             std::string_view vin,
                                             std::uint32_t r) {
  // One kUninstallBatch per vehicle — the kInstallBatch framing in
  // reverse, pre-built on the manifest so every push (and every vehicle
  // of the cohort) sends the same buffer by refcount.
  FleetStore::InstallRow& row = store_.row(r);
  const InstallState previous = row.state;
  // Write-ahead: half-removed before the uninstall batch leaves.
  WriteStatus(vin, row, Want::kDeinstall, DbState::kHalfRemoved);
  row.state = InstallState::kUninstalling;
  auto push = PushWireToVehicle(store_.FirstConnectedPeer(vehicle), vin,
                                row.manifest->uninstall_wire);
  if (!push.ok()) {
    row.state = previous;
    // Undo the write-ahead: re-record the state the row snapped back to.
    WriteStatus(vin, row, WantFor(previous), DbStateFor(previous));
    return push;
  }
  // Ack masks reset once the batch is on the wire (a failed push leaves
  // them as they were), so a repeated push (lost acks) converges.
  row.acked = 0;
  row.ack_ok = 0;
  row.pushed_at = network_.simulator().Now();
  return support::OkStatus();
}

support::Status TrustedServer::RepushInstallBatch(std::uint32_t vehicle,
                                                  std::uint32_t r,
                                                  PayloadPins& built) {
  // A recovered row carries no payload (RecoverInstallDb persists ids,
  // not package bytes), and a convergence race can leave a row whose
  // payload was already dropped.  Rematerialize from the catalog before
  // pushing — never push an empty wire.
  if (store_.row(r).payload == nullptr) {
    DACM_RETURN_IF_ERROR(MaterializeRowPackages(vehicle, r, &built));
  }
  FleetStore::InstallRow& row = store_.row(r);
  row.acked = 0;
  row.ack_ok = 0;
  DACM_RETURN_IF_ERROR(PushWireToVehicle(
      store_.FirstConnectedPeer(vehicle), store_.VinOf(vehicle),
      row.payload->install_wire));
  row.pushed_at = network_.simulator().Now();
  ++stats_.repushes;
  return support::OkStatus();
}

support::Status TrustedServer::MaterializeRowPackages(std::uint32_t vehicle,
                                                      std::uint32_t r,
                                                      PayloadPins* built) {
  FleetStore::InstallRow& row = store_.row(r);
  const std::string& app_name = row.manifest->app_name;
  auto app_it = apps_.find(app_name);
  if (app_it == apps_.end()) {
    return support::NotFound("app " + app_name +
                             " not in catalog (re-upload before resuming)");
  }
  const App& app = app_it->second;
  const std::string& model_name = ModelName(store_.model(vehicle));
  const SwConf* conf = app.ConfForModel(model_name);
  if (conf == nullptr) {
    return support::Incompatible("no SW conf for vehicle model " + model_name);
  }
  DACM_ASSIGN_OR_RETURN(const VehicleModelConf* model, ModelConf(model_name));
  // The layout the cache generates against excludes this row's own claims
  // — with no other churn since the original deploy the lowest-free
  // allocator reproduces the exact ids the vehicle already holds.  On
  // failure the row (and the derived bitmap) is untouched.
  store_.DeriveLayout(vehicle, layout_scratch_, r);
  DACM_ASSIGN_OR_RETURN(
      CachedBatch batch,
      cache_.Acquire(model_name, app, *conf, model->sw, layout_scratch_));
  if (batch.built && built != nullptr) built->push_back(batch.payload);
  row.manifest = batch.manifest;
  row.payload = batch.payload;
  // Re-record the paragraph: the regenerated ids may differ from the
  // recorded ones if the layout shifted underneath (another app released
  // lower ids since the original deploy).
  WriteStatus(store_.VinOf(vehicle), row, WantFor(row.state),
              DbStateFor(row.state));
  return support::OkStatus();
}

support::Status TrustedServer::UninstallApp(UserId user, const std::string& vin,
                                            const std::string& app_name) {
  const std::uint32_t vehicle = store_.Find(vin);
  if (vehicle == kNil || !store_.bound(vehicle)) {
    return support::NotFound("VIN: " + vin);
  }
  DACM_RETURN_IF_ERROR(CheckOwnership(user, store_.owner(vehicle), vin));
  const std::uint32_t r = store_.FindRow(vehicle, app_name);
  if (r == kNil) return support::NotFound("app not installed: " + app_name);

  // "whether there are some other installed plug-ins that are dependent on
  // the plug-ins being uninstalled" — the user is notified, not cascaded.
  if (std::string dependents = DependentsOf(vehicle, app_name);
      !dependents.empty()) {
    return support::DependencyViolation("apps depending on " + app_name +
                                        " must be uninstalled first: " + dependents);
  }

  DACM_RETURN_IF_ERROR(PushUninstall(vehicle, vin, r));
  ++stats_.uninstalls;
  return support::OkStatus();
}

support::Status TrustedServer::Restore(UserId user, const std::string& vin,
                                       std::uint32_t ecu_id) {
  const std::uint32_t vehicle = store_.Find(vin);
  if (vehicle == kNil || !store_.bound(vehicle)) {
    return support::NotFound("VIN: " + vin);
  }
  DACM_RETURN_IF_ERROR(CheckOwnership(user, store_.owner(vehicle), vin));
  // "The server filters out previously installed plug-ins in the replaced
  // ECU ... Next, the usual installation steps are followed."  The recorded
  // packages are re-pushed verbatim, so the restored ECU gets the same
  // unique ids and contexts it had before.
  auto touches = [&](const FleetStore::InstallRow& row) {
    return std::any_of(row.manifest->plugins.begin(),
                       row.manifest->plugins.end(),
                       [&](const BatchManifest::Plugin& plugin) {
                         return plugin.ecu_id == ecu_id;
                       });
  };
  // A row mid-uninstall cannot be restored: its pending acks belong to
  // the uninstall.  Refuse before any row changes state or any paragraph
  // is written, as the deploy wave does.
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    const FleetStore::InstallRow& row = store_.row(r);
    if (row.state == InstallState::kUninstalling && touches(row)) {
      return support::FailedPrecondition("uninstall of " +
                                         row.manifest->app_name +
                                         " in progress on " + vin);
    }
  }
  bool any = false;
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    if (!touches(store_.row(r))) continue;
    any = true;
    // A recovered (or converged) row has no payload; rebuild from the
    // catalog before re-pushing (same ids when the layout is unchanged).
    if (store_.row(r).payload == nullptr) {
      DACM_RETURN_IF_ERROR(
          MaterializeRowPackages(vehicle, r, /*built=*/nullptr));
    }
    FleetStore::InstallRow& row = store_.row(r);
    // Write-ahead: the row drops back to in-flight before the re-push.
    WriteStatus(vin, row, Want::kInstall, DbState::kHalfInstalled);
    row.state = InstallState::kPending;
    for (std::size_t i = 0; i < row.manifest->plugins.size(); ++i) {
      const BatchManifest::Plugin& plugin = row.manifest->plugins[i];
      if (plugin.ecu_id != ecu_id) continue;
      row.acked &= ~(std::uint64_t{1} << i);
      row.ack_ok &= ~(std::uint64_t{1} << i);
      DACM_RETURN_IF_ERROR(PushToVehicle(
          store_.FirstConnectedPeer(vehicle), vin,
          PluginInstallMessage(plugin, row.payload->packages[i])));
    }
  }
  if (!any) {
    return support::NotFound("no installed plug-ins on ECU " + std::to_string(ecu_id));
  }
  ++stats_.restores;
  return support::OkStatus();
}

// --- queries ---------------------------------------------------------------------------

support::Result<InstallState> TrustedServer::AppState(const std::string& vin,
                                                      const std::string& app_name) const {
  const std::uint32_t vehicle = store_.Find(vin);
  if (vehicle == kNil || !store_.bound(vehicle)) {
    return support::NotFound("VIN: " + vin);
  }
  const std::uint32_t r = store_.FindRow(vehicle, app_name);
  if (r == kNil) return support::NotFound("app not installed: " + app_name);
  return store_.row(r).state;
}

std::vector<std::string> TrustedServer::InstalledApps(const std::string& vin) const {
  std::vector<std::string> names;
  const std::uint32_t vehicle = store_.Find(vin);
  if (vehicle == kNil || !store_.bound(vehicle)) return names;
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    names.push_back(store_.row(r).manifest->app_name);
  }
  return names;
}

std::shared_ptr<const Vehicle> TrustedServer::FindVehicle(
    const std::string& vin) const {
  const std::uint32_t vehicle = store_.Find(vin);
  if (vehicle == kNil || !store_.bound(vehicle)) return nullptr;
  auto view = std::make_shared<Vehicle>();
  view->vin = vin;
  view->model = ModelName(store_.model(vehicle));
  view->owner = store_.owner(vehicle);
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    const FleetStore::InstallRow& row = store_.row(r);
    const BatchManifest& manifest = *row.manifest;
    InstalledApp record;
    record.app_name = manifest.app_name;
    record.version = manifest.version;
    record.state = row.state;
    record.plugins.reserve(manifest.plugins.size());
    for (std::size_t i = 0; i < manifest.plugins.size(); ++i) {
      InstalledApp::PluginRecord plugin;
      plugin.plugin = manifest.plugins[i].name;
      plugin.ecu_id = manifest.plugins[i].ecu_id;
      plugin.pic = manifest.plugins[i].pic;
      if (row.payload != nullptr) {
        plugin.package_bytes.assign(row.payload->packages[i].begin(),
                                    row.payload->packages[i].end());
      }
      plugin.acked = ((row.acked >> i) & 1) != 0;
      plugin.ack_ok = ((row.ack_ok >> i) & 1) != 0;
      record.plugins.push_back(std::move(plugin));
    }
    if (row.payload != nullptr) record.push_bytes = row.payload->install_wire;
    record.uninstall_bytes = manifest.uninstall_wire;
    view->installed.push_back(std::move(record));
  }
  IdLayout layout;
  store_.DeriveLayout(vehicle, layout);
  view->port_ids = ToUsedIdMap(layout);
  return view;
}

bool TrustedServer::HasVehicle(const std::string& vin) const {
  const std::uint32_t vehicle = store_.Find(vin);
  return vehicle != kNil && store_.bound(vehicle);
}

bool TrustedServer::VehicleOnline(const std::string& vin) const {
  const std::uint32_t vehicle = store_.Find(vin);
  return vehicle != kNil && store_.HasLiveConnection(vehicle);
}

bool TrustedServer::HasApp(const std::string& app_name) const {
  return apps_.contains(app_name);
}

void TrustedServer::FoldStatsToMetrics() {
  // The registry counters are process-wide and several servers may share
  // the process, so each fold adds this server's growth since its last
  // fold instead of overwriting the totals.
  ServerMetrics& metrics = ServerMetrics::Get();
  // Most counters do not move between two flushes; skip their atomic add.
  auto add = [](support::Counter& counter, std::uint64_t grown) {
    if (grown != 0) counter.Inc(grown);
  };
  auto fold = [&](support::Counter& counter,
                  std::uint64_t ServerStats::*field) {
    add(counter, stats_.*field - folded_stats_.*field);
  };
  fold(metrics.packages_pushed, &ServerStats::packages_pushed);
  fold(metrics.acks_received, &ServerStats::acks_received);
  fold(metrics.nacks_received, &ServerStats::nacks_received);
  fold(metrics.deploys_ok, &ServerStats::deploys_ok);
  fold(metrics.deploys_rejected, &ServerStats::deploys_rejected);
  fold(metrics.uninstalls, &ServerStats::uninstalls);
  fold(metrics.restores, &ServerStats::restores);
  fold(metrics.repushes, &ServerStats::repushes);
  fold(metrics.rollback_pushes, &ServerStats::rollback_pushes);
  fold(metrics.connections_reaped, &ServerStats::connections_reaped);
  fold(metrics.status_write_retries, &ServerStats::status_write_retries);
  fold(metrics.status_writes_lost, &ServerStats::status_writes_lost);
  fold(metrics.compactions, &ServerStats::compactions);
  folded_stats_ = stats_;
  metrics.durability_degraded.Set(stats_.durability_degraded ? 1 : 0);
  const PackageCache::Stats& cache = cache_.stats();
  PackageCache::Stats& last = folded_cache_stats_;
  add(metrics.cache_hits, cache.hits - last.hits);
  add(metrics.cache_variants, cache.variants - last.variants);
  add(metrics.cache_regenerations, cache.regenerations - last.regenerations);
  last = cache;
}

// --- internals ---------------------------------------------------------------------------

support::Status TrustedServer::CheckOwnership(UserId user, UserId owner,
                                              std::string_view vin) const {
  if (user.value() >= users_.size()) return support::NotFound("unknown user");
  if (owner != user) {
    return support::PermissionDenied("vehicle " + std::string(vin) +
                                     " is not bound to this user");
  }
  return support::OkStatus();
}

support::Result<const VehicleModelConf*> TrustedServer::ModelConf(
    const std::string& model) const {
  auto it = models_.find(model);
  if (it == models_.end()) return support::NotFound("vehicle model: " + model);
  return &it->second;
}

std::string TrustedServer::DependentsOf(std::uint32_t vehicle,
                                        const std::string& app_name) const {
  std::string dependents;
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    const std::string& other = store_.row(r).manifest->app_name;
    if (other == app_name) continue;
    auto app_it = apps_.find(other);
    if (app_it == apps_.end()) continue;
    const auto& deps = app_it->second.depends_on;
    if (std::find(deps.begin(), deps.end(), app_name) != deps.end()) {
      if (!dependents.empty()) dependents += ", ";
      dependents += other;
    }
  }
  return dependents;
}

void TrustedServer::WriteStatus(std::string_view vin,
                                const FleetStore::InstallRow& row, Want want,
                                DbState state) {
  if (status_db_ == nullptr) return;
  const BatchManifest& manifest = *row.manifest;
  StatusDb::EncodeParagraph(
      ParagraphHead{vin, manifest.app_name, manifest.version, want, state},
      &manifest, wal_buffer_);
  AppendStatusRecord(vin);
}

void TrustedServer::WriteStatusRemoved(std::string_view vin,
                                       std::string_view app_name,
                                       std::string_view version, Want want) {
  if (status_db_ == nullptr) return;
  StatusDb::EncodeParagraph(
      ParagraphHead{vin, app_name, version, want, DbState::kNotInstalled},
      nullptr, wal_buffer_);
  AppendStatusRecord(vin);
}

void TrustedServer::AppendStatusRecord(std::string_view vin) {
  (void)AppendDurable(wal_buffer_);
  support::Tracer::Instance().Instant(
      kFleetLane, "wal.append", "wal", network_.simulator().Now(),
      {"bytes", static_cast<std::uint64_t>(wal_buffer_.size())}, {}, {},
      "vin", vin);
}

support::Status TrustedServer::AppendDurable(
    std::span<const std::uint8_t> payload) {
  if (status_db_ == nullptr) return support::OkStatus();
  ServerMetrics::Get().wal_append_bytes.Observe(payload.size());
  if (stats_.durability_degraded) {
    // Already degraded: one attempt, no retry storm on a dead sink.
    auto status = status_db_->AppendRaw(payload);
    if (!status.ok()) ++stats_.status_writes_lost;
    return status;
  }
  auto status = status_db_->AppendRaw(payload);
  for (int attempt = 0; !status.ok() && attempt < kStatusRetryBudget;
       ++attempt) {
    ++stats_.status_write_retries;
    // Escalating-yield backoff: enough to let a transient fs hiccup
    // clear, without sleeping the sim thread.
    for (int i = 0; i <= attempt; ++i) std::this_thread::yield();
    status = status_db_->AppendRaw(payload);
  }
  if (!status.ok()) {
    ++stats_.status_writes_lost;
    // Durability degrades, availability does not: the in-memory
    // transition proceeds; the flag is sticky and the operator sees one
    // warning at the transition (per-write noise would drown it).
    if (!stats_.durability_degraded) {
      stats_.durability_degraded = true;
      DACM_LOG_WARN("server")
          << "durability degraded: status log write failed after "
          << kStatusRetryBudget << " retries: " << status.message();
    }
  }
  return status;
}

support::Status TrustedServer::RecoverInstallDb(
    std::span<const std::uint8_t> image) {
  for (std::uint32_t v = 0; v < store_.size(); ++v) {
    if (store_.bound(v) && store_.row_head(v) != kNil) {
      return support::FailedPrecondition(
          "recover requires empty install tables (vehicle " +
          std::string(store_.VinOf(v)) + " already has rows)");
    }
  }
  const sim::SimTime replay_started_at = network_.simulator().Now();
  DACM_ASSIGN_OR_RETURN(StatusImage replayed, StatusDb::ReplayImage(image));
  if (!replayed.catalog.empty()) {
    DACM_RETURN_IF_ERROR(RestoreCatalog(replayed.catalog));
  }
  std::uint64_t rows_created = 0;
  for (StatusParagraph& paragraph : replayed.paragraphs) {
    const std::uint32_t vehicle = store_.Find(paragraph.vin);
    if (vehicle == kNil || !store_.bound(vehicle)) {
      return support::NotFound("recovered paragraph names unbound VIN " +
                               paragraph.vin + " (re-bind the fleet first)");
    }

    // Map (want, state) back onto the in-memory row.  A half state means
    // the push may or may not have reached the vehicle — the row comes
    // back in-flight and the campaign's next wave re-pushes (the vehicle
    // side absorbs duplicates).
    InstallState state = InstallState::kPending;
    bool acked = false;
    bool ack_ok = false;
    switch (paragraph.state) {
      case DbState::kNotInstalled:
        continue;  // unreachable: Replay drops tombstoned pairs
      case DbState::kHalfInstalled:
        state = InstallState::kPending;
        break;
      case DbState::kInstalled:
        state = InstallState::kInstalled;
        acked = true;
        ack_ok = true;
        break;
      case DbState::kHalfRemoved:
        state = InstallState::kUninstalling;
        break;
      case DbState::kErrorState:
        if (paragraph.want == Want::kDeinstall) {
          // A nacked uninstall re-arms as installed (retried by the next
          // rollback wave), exactly like the live-server path.
          state = InstallState::kInstalled;
          acked = true;
          ack_ok = true;
        } else {
          state = InstallState::kFailed;
          acked = true;
          ack_ok = false;
        }
        break;
    }

    // Rows come back with a one-off manifest carrying exactly what the
    // paragraph recorded: plug-in names, placements, unique-id claims.
    // Package bytes are NOT persisted; the first wave that needs the
    // payload regenerates it from the re-uploaded catalog
    // (MaterializeRowPackages).
    const std::uint32_t r = store_.AddRow(vehicle);
    FleetStore::InstallRow& row = store_.row(r);
    row.state = state;
    row.manifest = PackageCache::RecoveredManifest(
        paragraph.app, paragraph.version, paragraph.plugins);
    const std::uint64_t full = FullMask(paragraph.plugins.size());
    row.acked = acked ? full : 0;
    row.ack_ok = ack_ok ? full : 0;
    ++rows_created;
  }
  // Replay is instantaneous in sim time, so the span's duration is 0 —
  // what matters for trace diffing is its position and record counts.
  support::Tracer::Instance().Span(
      0, "recovery.replay", "server", replay_started_at,
      network_.simulator().Now() - replay_started_at,
      {"paragraphs", static_cast<std::uint64_t>(replayed.paragraphs.size())},
      {"rows", rows_created},
      {"catalog_bindings",
       static_cast<std::uint64_t>(replayed.catalog.bindings.size())});
  FoldStatsToMetrics();
  return support::OkStatus();
}

support::Status TrustedServer::RestoreCatalog(const CatalogImage& image) {
  // Users: index == UserId, so the image's order is authoritative.  A
  // caller that already re-created users (the pre-checkpoint drill) must
  // have created them in the same order or the ids diverged for real.
  for (std::size_t i = 0; i < image.users.size(); ++i) {
    if (i < users_.size()) {
      if (users_[i].name != image.users[i].name) {
        return support::Corrupted(
            "recovered catalog user " + std::to_string(i) + " is '" +
            image.users[i].name + "' but the live catalog has '" +
            users_[i].name + "'");
      }
      continue;
    }
    users_.push_back(User{image.users[i].name, {}});
  }
  // Models in image (= pre-crash interner) order; live re-uploads win.
  for (const VehicleModelConf& conf : image.models) {
    if (!model_ids_.contains(conf.model)) {
      model_ids_.emplace(conf.model,
                         static_cast<std::uint16_t>(model_names_.size()));
      model_names_.push_back(conf.model);
    }
    models_.try_emplace(conf.model, conf);
  }
  for (const App& app : image.apps) {
    apps_.try_emplace(app.name, app);
  }
  // Bindings rebuild both the store columns and the per-user VIN cache;
  // VINs the caller already re-bound are left as they are.
  for (const CatalogBinding& binding : image.bindings) {
    if (binding.owner >= users_.size()) {
      return support::Corrupted("recovered binding " + binding.vin +
                                " names unknown user " +
                                std::to_string(binding.owner));
    }
    auto model_it = model_ids_.find(binding.model);
    if (model_it == model_ids_.end()) {
      return support::Corrupted("recovered binding " + binding.vin +
                                " names unknown model " + binding.model);
    }
    const std::uint32_t existing = store_.Find(binding.vin);
    if (existing != kNil && store_.bound(existing)) continue;
    store_.Bind(store_.Intern(binding.vin), model_it->second,
                     UserId(binding.owner));
    users_[binding.owner].vins.push_back(binding.vin);
  }
  return support::OkStatus();
}

support::Status TrustedServer::Compact() {
  if (status_db_ == nullptr) return support::OkStatus();
  support::CheckpointWriter checkpoint;
  CatalogImage image;
  image.users.reserve(users_.size());
  for (const User& user : users_) image.users.push_back(User{user.name, {}});
  // Models in interner order, so recovered model ids match pre-crash.
  image.models.reserve(model_names_.size());
  for (const std::string& name : model_names_) {
    auto it = models_.find(name);
    if (it != models_.end()) image.models.push_back(it->second);
  }
  // apps_ is an unordered_map: sort by name so the checkpoint bytes
  // (and with them the recovery fingerprint) are deterministic.
  std::vector<const App*> apps;
  apps.reserve(apps_.size());
  for (const auto& [name, app] : apps_) apps.push_back(&app);
  std::sort(apps.begin(), apps.end(),
            [](const App* a, const App* b) { return a->name < b->name; });
  image.apps.reserve(apps.size());
  for (const App* app : apps) image.apps.push_back(*app);
  for (std::uint32_t v = 0; v < store_.size(); ++v) {
    if (!store_.bound(v)) continue;
    image.bindings.push_back(CatalogBinding{std::string(store_.VinOf(v)),
                                            ModelName(store_.model(v)),
                                            store_.owner(v).value()});
  }
  DACM_RETURN_IF_ERROR(checkpoint.Append(EncodeCatalogImage(image)));
  // One paragraph per live install row — exactly what WriteStatus would
  // record for the row's current state, so replaying the checkpoint
  // reproduces this server.
  support::Bytes record;
  for (std::uint32_t v = 0; v < store_.size(); ++v) {
    if (!store_.bound(v)) continue;
    for (std::uint32_t r = store_.row_head(v); r != kNil;
         r = store_.row(r).next) {
      const FleetStore::InstallRow& row = store_.row(r);
      const BatchManifest& manifest = *row.manifest;
      StatusDb::EncodeParagraph(
          ParagraphHead{store_.VinOf(v), manifest.app_name, manifest.version,
                        WantFor(row.state), DbStateFor(row.state)},
          &manifest, record);
      DACM_RETURN_IF_ERROR(checkpoint.Append(record));
    }
  }
  // Rotation failure leaves the raw log intact — durability is unchanged,
  // only the compaction deferred — so it does not degrade the server.
  DACM_RETURN_IF_ERROR(status_db_->Rotate(checkpoint.image()));
  ++stats_.compactions;
  support::Tracer::Instance().Instant(
      0, "wal.rotate", "wal", network_.simulator().Now(),
      {"records", checkpoint.records()},
      {"bytes", checkpoint.image_bytes()});
  DACM_LOG_INFO("server") << "status log compacted: " << checkpoint.records()
                          << " records, " << checkpoint.image_bytes()
                          << " bytes";
  return support::OkStatus();
}

void TrustedServer::MaybeCompact() {
  if (status_db_ == nullptr || options_.compact_after_bytes == 0) return;
  if (status_db_->bytes_appended() < options_.compact_after_bytes) return;
  if (auto status = Compact(); !status.ok()) {
    DACM_LOG_WARN("server") << "status log compaction failed: "
                            << status.message();
  }
}

template <typename Sink>
void TrustedServer::FormatFleet(Sink& sink) const {
  // Sorted by VIN, rows sorted by app within a vehicle: the text must
  // not depend on handle order (Hello vs binding first) or on whether a
  // row was created live (deploy order) or by recovery (sorted replay
  // order).
  std::vector<std::pair<std::string_view, std::uint32_t>> order;
  for (std::uint32_t v = 0; v < store_.size(); ++v) {
    if (store_.bound(v)) order.emplace_back(store_.VinOf(v), v);
  }
  std::sort(order.begin(), order.end());
  std::vector<const FleetStore::InstallRow*> rows;
  for (const auto& [vin, v] : order) {
    sink.Append(vin);
    sink.Append(" model=");
    sink.Append(ModelName(store_.model(v)));
    sink.Append(" owner=");
    support::AppendNumber(sink, store_.owner(v).value());
    sink.Append("\n");
    rows.clear();
    for (std::uint32_t r = store_.row_head(v); r != kNil;
         r = store_.row(r).next) {
      rows.push_back(&store_.row(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const FleetStore::InstallRow* a,
                 const FleetStore::InstallRow* b) {
                return a->manifest->app_name < b->manifest->app_name;
              });
    for (const FleetStore::InstallRow* row : rows) {
      sink.Append("  ");
      sink.Append(row->manifest->app_name);
      sink.Append(" v");
      sink.Append(row->manifest->version);
      sink.Append(" state=");
      sink.Append(InstallStateName(row->state));
      sink.Append(" acked=");
      support::AppendNumber(sink, row->acked);
      sink.Append(" ack_ok=");
      support::AppendNumber(sink, row->ack_ok);
      sink.Append("\n");
    }
  }
}

std::string TrustedServer::DescribeFleet() const {
  support::StringSink sink;
  FormatFleet(sink);
  return std::move(sink.out);
}

std::uint64_t TrustedServer::FleetFingerprint() const {
  support::HashSink sink;
  FormatFleet(sink);
  return sink.hash;
}

void TrustedServer::OnAccept(std::shared_ptr<sim::NetPeer> peer) {
  // Reap accepted-but-dead peers that never completed a Hello (a link
  // flap between Connect and the Hello send strands them here); pruning
  // on every accept bounds pending_ by the number of live handshakes.
  stats_.connections_reaped += std::erase_if(
      pending_,
      [](const std::shared_ptr<sim::NetPeer>& old) { return !old->connected(); });
  AttachReceiveHandler(*peer);
  pending_.push_back(std::move(peer));
}

void TrustedServer::AttachReceiveHandler(sim::NetPeer& peer) {
  peer.SetReceiveHandler([this, raw = &peer, link = kNil](
                             const support::SharedBytes& data) mutable {
    OnVehicleMessage(raw, link, data);
  });
}

void TrustedServer::OnVehicleMessage(sim::NetPeer* peer, std::uint32_t& link,
                                     const support::SharedBytes& data) {
  // Zero-copy parse: the view aliases `data`, which outlives this handler.
  auto envelope = pirte::EnvelopeView::Parse(data);
  if (!envelope.ok()) {
    DACM_LOG_WARN("server") << "undecodable vehicle message";
    return;
  }

  if (envelope->kind == pirte::Envelope::Kind::kHello) {
    // Adopt the connection into the VIN's connection columns, reaping any
    // dead predecessors (ECMs redial on a periodic alarm, so long link
    // flaps would otherwise accumulate peers without bound).
    const std::string_view vin = envelope->vin;
    // Intern even before the binding exists: the handle anchors the
    // connection columns and the connection's link.
    const std::uint32_t vehicle = store_.Intern(vin);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].get() != peer) continue;
      // A reaped connection is never `peer` itself (that one is still
      // pending), so re-attaching its handler never replaces a running one.
      stats_.connections_reaped += store_.ReapDeadPeers(
          vehicle, [this](sim::NetPeer* old) { AttachReceiveHandler(*old); });
      store_.AddPeer(vehicle, std::move(pending_[i]));
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    link = vehicle;
    DACM_LOG_INFO("server") << "vehicle online: " << vin;
    return;
  }

  // Route to the VIN the connection announced at Hello when the envelope
  // names it (the common case: a string compare instead of a hash lookup)
  // or names nothing; any other VIN is looked up.
  std::string_view vin = envelope->vin;
  std::uint32_t handle = link;
  if (handle != kNil && (vin.empty() || vin == store_.VinOf(handle))) {
    vin = store_.VinOf(handle);
  } else if (!vin.empty()) {
    handle = store_.Find(vin);
  } else {
    return;  // never said Hello, or reaped since
  }
  // Helloed-but-unbound VINs have a handle but no vehicle (the historic
  // accounting counts their plain acks and drops their batches).
  const std::uint32_t vehicle =
      handle != kNil && store_.bound(handle) ? handle : kNil;

  // Acknowledgements are the server's highest-volume inbound traffic
  // (thousands per campaign).  Delivery only routes: it peeks the
  // message's leading type byte, resolves the vehicle handle, and
  // stages the raw bytes; the full parse runs at the flush
  // scheduled for this arrival timestamp, one event per burst.
  const std::span<const std::uint8_t> blob = envelope->message;
  const bool ack_like =
      !blob.empty() &&
      (blob[0] == static_cast<std::uint8_t>(pirte::MessageType::kAck) ||
       blob[0] == static_cast<std::uint8_t>(pirte::MessageType::kAckBatch));
  if (!ack_like) {
    // Non-ack vehicle traffic is unexpected; parse only to tell malformed
    // (warn) from benign-but-ignored.
    if (!pirte::PirteMessageView::Parse(blob).ok()) {
      DACM_LOG_WARN("server") << "undecodable PirteMessage from " << vin;
    }
    return;
  }
  // Zero-copy staging: the delivered buffer stays alive by refcount, and
  // with it the VIN view when the envelope supplied it.
  ack_inbox_.push_back(StagedAck{vehicle, vin, data, blob});
  ScheduleAckFlush();
}

void TrustedServer::ScheduleAckFlush() {
  if (ack_flush_scheduled_) return;
  ack_flush_scheduled_ = true;
  // Fires after every delivery already queued for this timestamp, so one
  // event covers the whole burst; acks are applied at the sim time they
  // arrived, before any later-scheduled event (e.g. a campaign wave) can
  // observe the rows.
  network_.simulator().ScheduleAfter(
      0, [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) return;
        ack_flush_scheduled_ = false;
        FlushAckInboxes();
      });
}

void TrustedServer::FlushAckInboxes() {
  if (ack_inbox_.empty()) return;
  const std::size_t staged_acks = ack_inbox_.size();

  const auto flush_start = std::chrono::steady_clock::now();
  for (const StagedAck& staged : ack_inbox_) ApplyStagedAck(staged);
  ack_inbox_.clear();
  const std::uint64_t flush_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - flush_start)
          .count());
  flush_ns_ += flush_wall_ns;
  // Wall time is histogram-only; the trace event carries the (sim-time,
  // deterministic) flush position and staged-ack count.
  ServerMetrics::Get().ack_flush_nanos.Observe(flush_wall_ns);
  support::Tracer::Instance().Instant(
      0, "ack.flush", "server", network_.simulator().Now(),
      {"acks", static_cast<std::uint64_t>(staged_acks)});
  FoldStatsToMetrics();

  // The checkpoint watermark is checked here, with the just-applied acks
  // included — the one recurring hook all campaign traffic funnels
  // through.
  MaybeCompact();
}

void TrustedServer::ApplyStagedAck(const StagedAck& staged) {
  auto parsed = pirte::PirteMessageView::Parse(staged.message);
  if (!parsed.ok()) {
    // Routing only peeked the type byte; a truncated ack surfaces here.
    DACM_LOG_WARN("server") << "undecodable PirteMessage from " << staged.vin;
    return;
  }
  const pirte::PirteMessageView& message = *parsed;
  if (message.type == pirte::MessageType::kAck) {
    ++stats_.acks_received;
    if (!message.ok) ++stats_.nacks_received;
    if (staged.vehicle == kNil) return;
    ApplyAck(staged.vehicle, message.plugin_name, message.ok);
  } else if (message.type == pirte::MessageType::kAckBatch) {
    if (staged.vehicle == kNil) return;
    if (!message.ok) {
      // Typed whole-batch rejection: the vehicle could not process the
      // campaign push at all; plugin_name carries the batch's app label.
      ++stats_.acks_received;
      ++stats_.nacks_received;
      ApplyBatchNack(staged.vehicle, message.plugin_name,
                     message.detail);
      return;
    }
    auto status = pirte::ForEachAckInBatch(
        message.payload,
        [&](std::string_view plugin, bool ok, std::string_view /*detail*/) {
          ++stats_.acks_received;
          if (!ok) ++stats_.nacks_received;
          ApplyAck(staged.vehicle, plugin, ok);
        });
    if (!status.ok()) {
      DACM_LOG_WARN("server") << "undecodable ack batch from " << staged.vin;
    }
  }
}

support::Status TrustedServer::PushToVehicle(
    sim::NetPeer* peer, std::string_view vin,
    const pirte::PirteMessageView& message) {
  return PushWireToVehicle(
      peer, vin,
      support::SharedBytes(pirte::SerializeEnveloped(vin, message)));
}

support::Status TrustedServer::PushWireToVehicle(sim::NetPeer* peer,
                                                 std::string_view vin,
                                                 const support::SharedBytes& wire) {
  if (wire.empty()) {
    // Belt and braces: every caller rematerializes a dropped payload
    // before pushing; an empty wire reaching here is a server bug, not a
    // vehicle-side condition, and must not be confused with "offline".
    return support::Internal("refusing to push empty wire to " +
                             std::string(vin));
  }
  if (peer != nullptr) {
    DACM_RETURN_IF_ERROR(peer->Send(wire));
    ++stats_.packages_pushed;
    return support::OkStatus();
  }
  return support::Unavailable("vehicle offline: " + std::string(vin));
}

void TrustedServer::ApplyBatchNack(std::uint32_t vehicle,
                                   std::string_view app_name,
                                   std::string_view detail) {
  // The vehicle rejected a whole batch.  Only reachable through a failed
  // kAckBatch, so an app and a plug-in sharing a name cannot collide.
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    FleetStore::InstallRow& row = store_.row(r);
    if (row.manifest->app_name != app_name) continue;
    if (row.state == InstallState::kPending) {
      // Fail the pending row outright — otherwise it would wait forever
      // for per-plug-in acks that will never come, blocking retries.
      WriteStatus(store_.VinOf(vehicle), row, Want::kInstall,
                  DbState::kErrorState);
      row.state = InstallState::kFailed;
      row.payload = nullptr;
      // Unacked plug-ins are marked acked-but-failed (ack_ok bits for the
      // already-acked ones keep their value).
      row.acked = FullMask(row.manifest->plugins.size());
      DACM_LOG_WARN("server") << "app " << row.manifest->app_name
                              << " batch-rejected on " << store_.VinOf(vehicle)
                              << ": " << detail;
      return;
    }
    if (row.state == InstallState::kUninstalling) {
      // A rejected kUninstallBatch: re-arm the row so the rollback
      // campaign's next wave pushes it again.  (kDeinstall, kInstalled)
      // recovers back into an installed row the next wave retries.
      WriteStatus(store_.VinOf(vehicle), row, Want::kDeinstall,
                  DbState::kInstalled);
      row.state = InstallState::kInstalled;
      DACM_LOG_WARN("server") << "uninstall batch of " << row.manifest->app_name
                              << " rejected on " << store_.VinOf(vehicle)
                              << ": " << detail;
      return;
    }
  }
}

void TrustedServer::ApplyAck(std::uint32_t vehicle,
                             std::string_view plugin_name, bool ok) {
  for (std::uint32_t r = store_.row_head(vehicle); r != kNil;
       r = store_.row(r).next) {
    FleetStore::InstallRow& row = store_.row(r);
    if (row.state != InstallState::kPending &&
        row.state != InstallState::kUninstalling) {
      continue;
    }
    const std::vector<BatchManifest::Plugin>& plugins = row.manifest->plugins;
    for (std::size_t i = 0; i < plugins.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (plugins[i].name != plugin_name || (row.acked & bit) != 0) continue;
      row.acked |= bit;
      if (ok) {
        row.ack_ok |= bit;
      } else {
        row.ack_ok &= ~bit;
      }
      // Re-evaluate the row.
      if (row.state == InstallState::kPending) {
        if (RowAnyFailed(row)) {
          WriteStatus(store_.VinOf(vehicle), row, Want::kInstall,
                      DbState::kErrorState);
          row.state = InstallState::kFailed;
          row.payload = nullptr;  // no more retry re-pushes of this batch
        } else if (RowAllAcked(row)) {
          WriteStatus(store_.VinOf(vehicle), row, Want::kInstall,
                      DbState::kInstalled);
          row.state = InstallState::kInstalled;
          // Converged: release the payload refcount.  When the cohort's
          // last pending row does this, the cache's weak reference
          // expires and the batch's package bytes are freed fleet-wide.
          row.payload = nullptr;
          // Push→ack round trip, both ends sim-time.  pushed_at == 0
          // means a recovered row acked without a live re-push; there is
          // no round trip to attribute.
          if (row.pushed_at != 0) {
            const sim::SimTime now = network_.simulator().Now();
            ServerMetrics::Get().deploy_roundtrip_us.Observe(now -
                                                             row.pushed_at);
            support::Tracer::Instance().Span(
                kFleetLane, "deploy.roundtrip", "server", row.pushed_at,
                now - row.pushed_at, {}, {}, {}, "vin", store_.VinOf(vehicle));
          }
          DACM_LOG_INFO("server") << "app " << row.manifest->app_name
                                  << " fully acknowledged on "
                                  << store_.VinOf(vehicle);
        }
      } else if (row.state == InstallState::kUninstalling && RowAllAcked(row)) {
        if (RowAnyFailed(row)) {
          // The vehicle refused (or could not confirm) the uninstall.
          // Re-arm the row instead of silently dropping server state the
          // vehicle may still hold — a rollback campaign's next wave
          // retries, and a retry loop that never succeeds surfaces as
          // kExhausted rather than a false convergence.
          WriteStatus(store_.VinOf(vehicle), row, Want::kDeinstall,
                      DbState::kInstalled);
          row.state = InstallState::kInstalled;
          DACM_LOG_WARN("server") << "uninstall of " << row.manifest->app_name
                                  << " nacked on " << store_.VinOf(vehicle)
                                  << "; row re-armed";
        } else {
          // The freed unique ids disappear with the row (the bitmap is
          // derived); the tombstone erases the pair from the status DB
          // on replay.
          WriteStatusRemoved(store_.VinOf(vehicle),
                             row.manifest->app_name, row.manifest->version,
                             Want::kDeinstall);
          store_.RemoveRow(vehicle, r);
        }
      }
      return;
    }
  }
}

}  // namespace dacm::server
