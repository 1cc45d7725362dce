#include "server/campaign.hpp"

#include <algorithm>

#include "server/journal.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/sink.hpp"
#include "support/trace.hpp"

namespace dacm::server {

std::string_view CampaignRowStateName(CampaignRowState state) {
  switch (state) {
    case CampaignRowState::kPending: return "pending";
    case CampaignRowState::kPushed: return "pushed";
    case CampaignRowState::kNacked: return "nacked";
    case CampaignRowState::kOffline: return "offline";
    case CampaignRowState::kRetrying: return "retrying";
    case CampaignRowState::kDone: return "done";
    case CampaignRowState::kFailed: return "failed";
  }
  return "?";
}

std::string_view CampaignStatusName(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::kRunning: return "running";
    case CampaignStatus::kConverged: return "converged";
    case CampaignStatus::kAborted: return "aborted";
    case CampaignStatus::kExhausted: return "exhausted";
  }
  return "?";
}

namespace {

using support::AppendNumber;
using support::HashSink;
using support::StringSink;

bool Retriable(CampaignRowState state) {
  switch (state) {
    case CampaignRowState::kPending:
    case CampaignRowState::kPushed:
    case CampaignRowState::kNacked:
    case CampaignRowState::kOffline:
    case CampaignRowState::kRetrying:
      return true;
    case CampaignRowState::kDone:
    case CampaignRowState::kFailed:
      return false;
  }
  return false;
}

}  // namespace

CampaignEngine::CampaignEngine(sim::Simulator& simulator, TrustedServer& server)
    : simulator_(simulator), server_(server) {}

support::Result<CampaignId> CampaignEngine::StartDeploy(
    UserId user, std::string app_name, std::span<const std::string> vins,
    RetryPolicy policy) {
  if (!server_.HasApp(app_name)) {
    return support::NotFound("app: " + app_name);
  }
  return Start(CampaignKind::kDeploy, user, std::move(app_name), vins, policy);
}

support::Result<CampaignId> CampaignEngine::StartRollback(
    UserId user, std::string app_name, std::span<const std::string> vins,
    RetryPolicy policy) {
  return Start(CampaignKind::kRollback, user, std::move(app_name), vins, policy);
}

support::Result<CampaignId> CampaignEngine::Start(
    CampaignKind kind, UserId user, std::string app_name,
    std::span<const std::string> vins, RetryPolicy policy) {
  if (vins.empty()) return support::InvalidArgument("campaign without vehicles");
  if (policy.max_waves == 0) {
    return support::InvalidArgument("RetryPolicy.max_waves must be >= 1");
  }
  auto campaign = std::make_unique<Campaign>();
  campaign->id = CampaignId(static_cast<std::uint32_t>(campaigns_.size()));
  campaign->kind = kind;
  campaign->user = user;
  campaign->app_name = std::move(app_name);
  campaign->policy = policy;
  campaign->started_at = simulator_.Now();
  campaign->rows.reserve(vins.size());
  for (const std::string& vin : vins) {
    CampaignRow row;
    row.vin = vin;
    campaign->rows.push_back(std::move(row));
  }
  const CampaignId id = campaign->id;
  const std::size_t index = campaigns_.size();
  campaigns_.push_back(std::move(campaign));
  DACM_LOG_INFO("campaign")
      << (kind == CampaignKind::kDeploy ? "deploy" : "rollback") << " campaign "
      << id << " started: app=" << campaigns_.back()->app_name
      << " fleet=" << vins.size();
  if (journal_ != nullptr) {
    const Campaign& started = *campaigns_.back();
    const support::Status logged = journal_->AppendStart(
        id.value(), kind, started.user.value(), started.app_name,
        started.policy, started.started_at, started.rows);
    if (!logged.ok()) {
      DACM_LOG_WARN("campaign")
          << "journal start write failed: " << logged.ToString();
    }
  }
  support::Metrics::Instance()
      .GetCounter("dacm_campaigns_started_total")
      .Inc();
  support::Tracer::Instance().Instant(
      0, "campaign.start", "campaign", simulator_.Now(),
      {"campaign", campaigns_.back()->id.value()},
      {"fleet", static_cast<std::uint64_t>(vins.size())}, {}, "app",
      campaigns_.back()->app_name);
  ScheduleTick(index, simulator_.Now());
  return id;
}

const CampaignEngine::Campaign* CampaignEngine::Find(CampaignId id) const {
  if (!id.valid() || id.value() >= campaigns_.size()) return nullptr;
  return campaigns_[id.value()].get();
}

support::Status CampaignEngine::Forget(CampaignId id) {
  const Campaign* campaign = Find(id);
  if (campaign == nullptr) return support::NotFound("unknown campaign");
  if (campaign->status == CampaignStatus::kRunning) {
    return support::FailedPrecondition("campaign still running");
  }
  // The slot stays (ids are vector indices); only the row table goes.
  // A late tick against the retired id hits the null-slot guard in
  // Tick(), so a timer that somehow outlives the campaign is inert.
  campaigns_[id.value()].reset();
  if (journal_ != nullptr) {
    const support::Status logged = journal_->AppendForget(id.value());
    if (!logged.ok()) {
      DACM_LOG_WARN("campaign")
          << "journal forget write failed: " << logged.ToString();
    }
  }
  return support::OkStatus();
}

support::Status CampaignEngine::Recover(
    std::span<const std::uint8_t> journal_image) {
  if (!campaigns_.empty()) {
    return support::FailedPrecondition("recover requires a fresh engine");
  }
  DACM_ASSIGN_OR_RETURN(std::vector<RecoveredCampaign> recovered,
                        ReplayCampaignJournal(journal_image));
  campaigns_.reserve(recovered.size());
  for (RecoveredCampaign& image : recovered) {
    const std::size_t index = campaigns_.size();
    if (image.forgotten) {
      // Preserve the slot so later ids keep their alignment.
      campaigns_.push_back(nullptr);
      continue;
    }
    auto campaign = std::make_unique<Campaign>();
    campaign->id = CampaignId(image.id);
    campaign->kind = image.kind;
    campaign->user = UserId(image.user);
    campaign->app_name = std::move(image.app_name);
    campaign->policy = image.policy;
    campaign->status = image.status;
    campaign->rows = std::move(image.rows);
    campaign->waves_pushed = image.waves_pushed;
    campaign->total_pushes = image.total_pushes;
    campaign->started_at = image.started_at;
    campaign->last_push_at = image.last_push_at;
    campaign->finished_at = image.finished_at;
    campaign->next_tick_at = image.next_tick_at;
    const bool running = campaign->status == CampaignStatus::kRunning;
    campaigns_.push_back(std::move(campaign));
    if (running) {
      // Resume the retry cadence where the dead engine left off; a tick
      // that was already overdue when the server died fires now.
      ScheduleTick(index,
                   std::max(campaigns_.back()->next_tick_at, simulator_.Now()));
    }
  }
  DACM_LOG_INFO("campaign") << "recovered " << campaigns_.size()
                            << " campaign(s) from journal";
  return support::OkStatus();
}

bool CampaignEngine::Finished(CampaignId id) const {
  const Campaign* campaign = Find(id);
  return campaign != nullptr && campaign->status != CampaignStatus::kRunning;
}

support::Result<CampaignSnapshot> CampaignEngine::Snapshot(CampaignId id) const {
  const Campaign* campaign = Find(id);
  if (campaign == nullptr) return support::NotFound("unknown campaign");
  CampaignSnapshot snapshot;
  snapshot.id = campaign->id;
  snapshot.kind = campaign->kind;
  snapshot.status = campaign->status;
  snapshot.rows = campaign->rows.size();
  snapshot.waves_pushed = campaign->waves_pushed;
  snapshot.total_pushes = campaign->total_pushes;
  snapshot.started_at = campaign->started_at;
  snapshot.finished_at = campaign->finished_at;
  for (const CampaignRow& row : campaign->rows) {
    switch (row.state) {
      case CampaignRowState::kPending: ++snapshot.pending; break;
      case CampaignRowState::kPushed: ++snapshot.pushed; break;
      case CampaignRowState::kNacked: ++snapshot.nacked; break;
      case CampaignRowState::kOffline: ++snapshot.offline; break;
      case CampaignRowState::kRetrying: ++snapshot.retrying; break;
      case CampaignRowState::kDone: ++snapshot.done; break;
      case CampaignRowState::kFailed: ++snapshot.failed; break;
    }
  }
  return snapshot;
}

support::Result<std::vector<sim::SimTime>> CampaignEngine::TimesToDone(
    CampaignId id) const {
  const Campaign* campaign = Find(id);
  if (campaign == nullptr) return support::NotFound("unknown campaign");
  std::vector<sim::SimTime> times;
  times.reserve(campaign->rows.size());
  for (const CampaignRow& row : campaign->rows) {
    if (row.state != CampaignRowState::kDone) continue;
    times.push_back(row.done_at - campaign->started_at);
  }
  return times;
}

const CampaignRow* CampaignEngine::FindRow(CampaignId id,
                                           std::string_view vin) const {
  const Campaign* campaign = Find(id);
  if (campaign == nullptr) return nullptr;
  for (const CampaignRow& row : campaign->rows) {
    if (row.vin == vin) return &row;
  }
  return nullptr;
}

template <typename Sink>
void CampaignEngine::Format(const Campaign* campaign, Sink& sink) const {
  if (campaign == nullptr) {
    sink.Append("unknown campaign");
    return;
  }
  sink.Append("campaign ");
  AppendNumber(sink, campaign->id.value());
  sink.Append(campaign->kind == CampaignKind::kDeploy ? " deploy "
                                                      : " rollback ");
  sink.Append(campaign->app_name);
  sink.Append(" status=");
  sink.Append(CampaignStatusName(campaign->status));
  sink.Append(" waves=");
  AppendNumber(sink, campaign->waves_pushed);
  sink.Append(" pushes=");
  AppendNumber(sink, campaign->total_pushes);
  sink.Append(" started=");
  AppendNumber(sink, campaign->started_at);
  sink.Append(" finished=");
  AppendNumber(sink, campaign->finished_at);
  sink.Append("\n");
  for (const CampaignRow& row : campaign->rows) {
    sink.Append(row.vin);
    sink.Append(" state=");
    sink.Append(CampaignRowStateName(row.state));
    sink.Append(" attempts=");
    AppendNumber(sink, row.attempts);
    sink.Append(" done_at=");
    AppendNumber(sink, row.done_at);
    if (row.error != support::ErrorCode::kOk) {
      sink.Append(" error=");
      sink.Append(support::ErrorCodeName(row.error));
    }
    sink.Append("\n");
  }
}

std::string CampaignEngine::Describe(CampaignId id) const {
  StringSink sink;
  Format(Find(id), sink);
  return std::move(sink.out);
}

std::uint64_t CampaignEngine::Fingerprint(CampaignId id) const {
  HashSink sink;
  Format(Find(id), sink);
  return sink.hash;
}

sim::SimTime CampaignEngine::Backoff(const RetryPolicy& policy,
                                     std::size_t waves_pushed) const {
  // Gap between wave `waves_pushed` and the next one.
  double backoff = static_cast<double>(policy.initial_backoff);
  for (std::size_t i = 1; i < waves_pushed; ++i) {
    backoff *= policy.backoff_multiplier;
    if (backoff >= static_cast<double>(policy.max_backoff)) {
      return policy.max_backoff;
    }
  }
  return std::min<sim::SimTime>(policy.max_backoff,
                                static_cast<sim::SimTime>(backoff));
}

void CampaignEngine::ScheduleTick(std::size_t index, sim::SimTime at) {
  Campaign& campaign = *campaigns_[index];
  campaign.next_tick_at = at;
  // Each (re)schedule starts a new epoch, so at most one pending tick is
  // ever live per campaign; the alive token outlives `this` and retires
  // timers still in the wheel when the engine is destroyed mid-campaign.
  const std::uint64_t epoch = ++campaign.epoch;
  simulator_.ScheduleAt(
      at, [this, index, epoch,
           alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) return;
        Tick(index, epoch);
      });
}

void CampaignEngine::Evaluate(Campaign& campaign) {
  for (std::size_t i = 0; i < campaign.rows.size(); ++i) {
    CampaignRow& row = campaign.rows[i];
    if (!Retriable(row.state)) continue;
    if (row.vehicle == FleetStore::kNil) {
      row.vehicle = server_.ResolveVehicle(row.vin);
    }
    const RowProbe probe = server_.ProbeRow(row.vehicle, campaign.app_name);
    if (campaign.kind == CampaignKind::kDeploy) {
      if (probe == RowProbe::kInstalled) {
        row.state = CampaignRowState::kDone;
        row.done_at = simulator_.Now();
        row.error = support::ErrorCode::kOk;
        campaign.dirty.push_back(static_cast<std::uint32_t>(i));
      } else if (probe == RowProbe::kFailed) {
        row.state = CampaignRowState::kNacked;
        campaign.dirty.push_back(static_cast<std::uint32_t>(i));
      }
      // kPending rows (acks lost) and missing rows (never pushed) keep
      // their engine state; the next wave picks them up.
    } else {
      // Rollback converges when the row is gone — but only for vehicles
      // the server actually knows: an unknown (or unbound) VIN must fall
      // through to the wave push, whose NotFound rejection fails the row
      // instead of reporting a fleet the server never touched as
      // converged.
      if (probe == RowProbe::kNoRow) {
        row.state = CampaignRowState::kDone;
        row.done_at = simulator_.Now();
        row.error = support::ErrorCode::kOk;
        campaign.dirty.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
}

void CampaignEngine::Finish(Campaign& campaign, CampaignStatus status) {
  for (std::size_t i = 0; i < campaign.rows.size(); ++i) {
    CampaignRow& row = campaign.rows[i];
    if (!Retriable(row.state)) continue;
    row.state = CampaignRowState::kFailed;
    if (row.error == support::ErrorCode::kOk) {
      // Failed without a recorded rejection: the campaign ran out of
      // road (abort threshold or wave budget) while the row was still
      // offline / unacked — kUnavailable is the honest summary.
      row.error = support::ErrorCode::kUnavailable;
    }
    campaign.dirty.push_back(static_cast<std::uint32_t>(i));
  }
  campaign.status = status;
  campaign.finished_at = simulator_.Now();
  // No wave follows: release the payloads the waves built.  Rows still in
  // flight keep theirs until they converge.
  campaign.pins = PayloadPins();
  // One whole-campaign span (the flight recorder's top-level track) plus
  // the terminal instant; ts/dur are sim time, status is the enum value.
  auto& tracer = support::Tracer::Instance();
  tracer.Span(0, "campaign.run", "campaign", campaign.started_at,
              campaign.finished_at - campaign.started_at,
              {"campaign", campaign.id.value()},
              {"waves", campaign.waves_pushed},
              {"pushes", campaign.total_pushes});
  tracer.Instant(0, "campaign.finish", "campaign", campaign.finished_at,
                 {"campaign", campaign.id.value()},
                 {"status", static_cast<std::uint64_t>(status)}, {}, "outcome",
                 CampaignStatusName(status));
  support::Metrics::Instance()
      .GetCounter(status == CampaignStatus::kConverged
                      ? "dacm_campaigns_converged_total"
                      : "dacm_campaigns_failed_total")
      .Inc();
  DACM_LOG_INFO("campaign") << "campaign " << campaign.id << " finished "
                            << CampaignStatusName(status) << " after "
                            << campaign.waves_pushed << " wave(s), "
                            << campaign.total_pushes << " push(es)";
}

void CampaignEngine::PushWave(Campaign& campaign,
                              const std::vector<std::size_t>& retry) {
  // Rows were resolved by this tick's Evaluate.
  std::vector<WaveTarget> targets;
  targets.reserve(retry.size());
  for (std::size_t index : retry) {
    CampaignRow& row = campaign.rows[index];
    row.state = CampaignRowState::kRetrying;
    targets.push_back(WaveTarget{row.vin, row.vehicle});
    campaign.dirty.push_back(static_cast<std::uint32_t>(index));
  }
  ++campaign.waves_pushed;
  campaign.last_push_at = simulator_.Now();

  auto outcomes = server_.CampaignWavePush(campaign.user, campaign.app_name,
                                           campaign.kind, targets,
                                           campaign.pins);

  std::size_t pushed = 0, offline = 0, rejected = 0, done = 0;
  for (std::size_t i = 0; i < retry.size(); ++i) {
    CampaignRow& row = campaign.rows[retry[i]];
    WaveOutcome& outcome = outcomes[i];
    switch (outcome.action) {
      case WaveOutcome::Action::kAlreadyDone:
        row.state = CampaignRowState::kDone;
        if (row.done_at == 0) row.done_at = simulator_.Now();
        row.error = support::ErrorCode::kOk;
        ++done;
        break;
      case WaveOutcome::Action::kPushed:
        row.state = CampaignRowState::kPushed;
        ++row.attempts;
        ++campaign.total_pushes;
        ++pushed;
        break;
      case WaveOutcome::Action::kOffline:
        row.state = CampaignRowState::kOffline;
        row.error = outcome.status.code();
        ++row.attempts;
        ++campaign.total_pushes;
        ++offline;
        break;
      case WaveOutcome::Action::kRejected:
        row.state = CampaignRowState::kFailed;
        row.error = outcome.status.code();
        ++rejected;
        break;
    }
  }
  DACM_LOG_INFO("campaign") << "campaign " << campaign.id << " wave "
                            << campaign.waves_pushed << ": pushed=" << pushed
                            << " offline=" << offline << " rejected=" << rejected
                            << " already-done=" << done;
  // The wave timeline lives on trace lane 0 with the other server-wide
  // events.
  // Three args is the event's capacity: rejected/done ride in a second
  // instant only when they are non-zero (the common case emits one event).
  auto& tracer = support::Tracer::Instance();
  tracer.Instant(0, "campaign.wave", "campaign", simulator_.Now(),
                 {"wave", campaign.waves_pushed}, {"pushed", pushed},
                 {"offline", offline});
  if (rejected != 0 || done != 0) {
    tracer.Instant(0, "campaign.wave.skips", "campaign", simulator_.Now(),
                   {"wave", campaign.waves_pushed}, {"rejected", rejected},
                   {"already_done", done});
  }
  support::Metrics::Instance()
      .GetCounter("dacm_campaign_waves_total")
      .Inc();
}

void CampaignEngine::CommitTick(Campaign& campaign) {
  if (journal_ == nullptr) {
    campaign.dirty.clear();
    return;
  }
  support::Status logged = support::OkStatus();
  if (!campaign.dirty.empty()) {
    std::sort(campaign.dirty.begin(), campaign.dirty.end());
    campaign.dirty.erase(
        std::unique(campaign.dirty.begin(), campaign.dirty.end()),
        campaign.dirty.end());
    std::vector<JournalRowEntry> entries;
    entries.reserve(campaign.dirty.size());
    for (const std::uint32_t row_index : campaign.dirty) {
      const CampaignRow& row = campaign.rows[row_index];
      JournalRowEntry entry;
      entry.index = row_index;
      entry.state = row.state;
      entry.attempts = static_cast<std::uint32_t>(row.attempts);
      entry.done_at = row.done_at;
      entry.error = row.error;
      entries.push_back(entry);
    }
    logged = journal_->AppendRows(campaign.id.value(), entries);
    campaign.dirty.clear();
  }
  if (logged.ok()) {
    logged = campaign.status == CampaignStatus::kRunning
                 ? journal_->AppendWave(campaign.id.value(),
                                        campaign.waves_pushed,
                                        campaign.total_pushes,
                                        campaign.last_push_at,
                                        campaign.next_tick_at)
                 : journal_->AppendFinish(campaign.id.value(), campaign.status,
                                          campaign.finished_at);
  }
  if (!logged.ok()) {
    // Journal write failures degrade durability, never the live rollout.
    DACM_LOG_WARN("campaign")
        << "journal commit failed for campaign " << campaign.id << ": "
        << logged.ToString();
  }
  // Every commit is a watermark checkpoint opportunity: the journal only
  // grows through commits, so checking here bounds its size without a
  // timer of its own.
  MaybeCompactJournal();
}

support::Status CampaignEngine::CompactJournal() {
  if (journal_ == nullptr) return support::OkStatus();
  support::CheckpointWriter checkpoint;
  for (std::size_t i = 0; i < campaigns_.size(); ++i) {
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    const Campaign* campaign = campaigns_[i].get();
    if (campaign == nullptr) {
      // Retired slot: the tombstone alone survives — the whole
      // kStart/kRows/kWave chain of the forgotten campaign is dropped.
      DACM_RETURN_IF_ERROR(
          checkpoint.Append(CampaignJournal::EncodeForget(id)));
      continue;
    }
    DACM_RETURN_IF_ERROR(checkpoint.Append(CampaignJournal::EncodeStart(
        id, campaign->kind, campaign->user.value(), campaign->app_name,
        campaign->policy, campaign->started_at, campaign->rows)));
    std::vector<JournalRowEntry> entries;
    for (std::size_t r = 0; r < campaign->rows.size(); ++r) {
      const CampaignRow& row = campaign->rows[r];
      if (row.state == CampaignRowState::kPending && row.attempts == 0 &&
          row.done_at == 0 && row.error == support::ErrorCode::kOk) {
        continue;  // default-constructed by the kStart replay already
      }
      JournalRowEntry entry;
      entry.index = static_cast<std::uint32_t>(r);
      entry.state = row.state;
      entry.attempts = static_cast<std::uint32_t>(row.attempts);
      entry.done_at = row.done_at;
      entry.error = row.error;
      entries.push_back(entry);
    }
    if (!entries.empty()) {
      DACM_RETURN_IF_ERROR(
          checkpoint.Append(CampaignJournal::EncodeRows(id, entries)));
    }
    // The wave record carries counters kStart/kFinish do not
    // (waves_pushed, total_pushes), so it is emitted for finished
    // campaigns too — replay folds it before the finish marker.
    DACM_RETURN_IF_ERROR(checkpoint.Append(CampaignJournal::EncodeWave(
        id, campaign->waves_pushed, campaign->total_pushes,
        campaign->last_push_at, campaign->next_tick_at)));
    if (campaign->status != CampaignStatus::kRunning) {
      DACM_RETURN_IF_ERROR(checkpoint.Append(CampaignJournal::EncodeFinish(
          id, campaign->status, campaign->finished_at)));
    }
  }
  DACM_RETURN_IF_ERROR(journal_->Rotate(checkpoint.image()));
  DACM_LOG_INFO("campaign") << "journal compacted: " << checkpoint.records()
                            << " record(s), " << checkpoint.image_bytes()
                            << " byte(s) across " << campaigns_.size()
                            << " slot(s)";
  return support::OkStatus();
}

void CampaignEngine::MaybeCompactJournal() {
  if (journal_ == nullptr || journal_compact_after_bytes_ == 0 ||
      journal_->bytes_appended() < journal_compact_after_bytes_) {
    return;
  }
  const support::Status compacted = CompactJournal();
  if (!compacted.ok()) {
    DACM_LOG_WARN("campaign")
        << "journal compaction failed: " << compacted.ToString();
  }
}

void CampaignEngine::Tick(std::size_t index, std::uint64_t epoch) {
  if (index >= campaigns_.size() || campaigns_[index] == nullptr) {
    return;  // forgotten: the id is retired, the timer is inert
  }
  Campaign& campaign = *campaigns_[index];
  if (campaign.epoch != epoch) return;  // superseded schedule
  if (campaign.status != CampaignStatus::kRunning) return;

  // Belt and braces: arrival-time flush events normally applied every
  // staged acknowledgement already.
  server_.FlushAckInboxes();
  Evaluate(campaign);

  std::vector<std::size_t> retry;
  std::size_t nacked = 0, failed = 0;
  for (std::size_t i = 0; i < campaign.rows.size(); ++i) {
    const CampaignRowState state = campaign.rows[i].state;
    if (state == CampaignRowState::kNacked) ++nacked;
    if (state == CampaignRowState::kFailed) ++failed;
    if (Retriable(state)) retry.push_back(i);
  }

  if (campaign.waves_pushed > 0 &&
      static_cast<double>(nacked) / static_cast<double>(campaign.rows.size()) >=
          campaign.policy.abort_nack_fraction) {
    Finish(campaign, CampaignStatus::kAborted);
    CommitTick(campaign);
    return;
  }
  if (retry.empty()) {
    Finish(campaign, failed == 0 ? CampaignStatus::kConverged
                                 : CampaignStatus::kExhausted);
    CommitTick(campaign);
    return;
  }
  if (campaign.waves_pushed >= campaign.policy.max_waves) {
    Finish(campaign, CampaignStatus::kExhausted);
    CommitTick(campaign);
    return;
  }

  const sim::SimTime next_push_at =
      campaign.waves_pushed == 0
          ? simulator_.Now()
          : campaign.last_push_at + Backoff(campaign.policy, campaign.waves_pushed);
  if (next_push_at > simulator_.Now()) {
    // Backoff still running: come back when the next wave is due.
    ScheduleTick(index, next_push_at);
    CommitTick(campaign);
    return;
  }
  PushWave(campaign, retry);
  ScheduleTick(index, simulator_.Now() + campaign.policy.settle_delay);
  // Commit *after* the pushes went out: at-least-once.  A crash inside
  // this tick replays the wave from the previous commit; the server's
  // wave path (kAlreadyDone, idempotent repush) absorbs the duplicates.
  CommitTick(campaign);
}

}  // namespace dacm::server
