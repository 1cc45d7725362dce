#include "server/journal.hpp"

#include <bit>
#include <utility>

#include "support/bytes.hpp"
#include "support/log.hpp"

namespace dacm::server {
namespace {

enum class RecordType : std::uint8_t {
  kStart = 1,
  kRows = 2,
  kWave = 3,
  kFinish = 4,
  kForget = 5,
};

constexpr std::uint8_t kJournalVersion = 1;

void WritePolicy(support::ByteWriter& writer, const RetryPolicy& policy) {
  writer.WriteU64(policy.max_waves);
  writer.WriteU64(policy.settle_delay);
  writer.WriteU64(policy.initial_backoff);
  writer.WriteU64(std::bit_cast<std::uint64_t>(policy.backoff_multiplier));
  writer.WriteU64(policy.max_backoff);
  writer.WriteU64(std::bit_cast<std::uint64_t>(policy.abort_nack_fraction));
}

support::Status ReadPolicy(support::ByteReader& reader, RetryPolicy& policy) {
  DACM_ASSIGN_OR_RETURN(const std::uint64_t max_waves, reader.ReadU64());
  policy.max_waves = static_cast<std::size_t>(max_waves);
  DACM_ASSIGN_OR_RETURN(policy.settle_delay, reader.ReadU64());
  DACM_ASSIGN_OR_RETURN(policy.initial_backoff, reader.ReadU64());
  DACM_ASSIGN_OR_RETURN(const std::uint64_t multiplier, reader.ReadU64());
  policy.backoff_multiplier = std::bit_cast<double>(multiplier);
  DACM_ASSIGN_OR_RETURN(policy.max_backoff, reader.ReadU64());
  DACM_ASSIGN_OR_RETURN(const std::uint64_t abort_fraction, reader.ReadU64());
  policy.abort_nack_fraction = std::bit_cast<double>(abort_fraction);
  return support::OkStatus();
}

}  // namespace

support::Bytes CampaignJournal::EncodeStart(
    std::uint32_t id, CampaignKind kind, std::uint32_t user,
    std::string_view app_name, const RetryPolicy& policy,
    sim::SimTime started_at, std::span<const CampaignRow> rows) {
  support::ByteWriter writer;
  writer.WriteU8(kJournalVersion);
  writer.WriteU8(static_cast<std::uint8_t>(RecordType::kStart));
  writer.WriteU32(id);
  writer.WriteU8(static_cast<std::uint8_t>(kind));
  writer.WriteU32(user);
  writer.WriteString(app_name);
  WritePolicy(writer, policy);
  writer.WriteU64(started_at);
  writer.WriteVarU32(static_cast<std::uint32_t>(rows.size()));
  for (const CampaignRow& row : rows) writer.WriteString(row.vin);
  return writer.Take();
}

support::Bytes CampaignJournal::EncodeRows(
    std::uint32_t id, std::span<const JournalRowEntry> entries) {
  support::ByteWriter writer;
  writer.WriteU8(kJournalVersion);
  writer.WriteU8(static_cast<std::uint8_t>(RecordType::kRows));
  writer.WriteU32(id);
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const JournalRowEntry& entry : entries) {
    writer.WriteVarU32(entry.index);
    writer.WriteU8(static_cast<std::uint8_t>(entry.state));
    writer.WriteVarU32(entry.attempts);
    writer.WriteU64(entry.done_at);
    writer.WriteU8(static_cast<std::uint8_t>(entry.error));
  }
  return writer.Take();
}

support::Bytes CampaignJournal::EncodeWave(std::uint32_t id,
                                           std::size_t waves_pushed,
                                           std::uint64_t total_pushes,
                                           sim::SimTime last_push_at,
                                           sim::SimTime next_tick_at) {
  support::ByteWriter writer;
  writer.WriteU8(kJournalVersion);
  writer.WriteU8(static_cast<std::uint8_t>(RecordType::kWave));
  writer.WriteU32(id);
  writer.WriteU64(waves_pushed);
  writer.WriteU64(total_pushes);
  writer.WriteU64(last_push_at);
  writer.WriteU64(next_tick_at);
  return writer.Take();
}

support::Bytes CampaignJournal::EncodeFinish(std::uint32_t id,
                                             CampaignStatus status,
                                             sim::SimTime finished_at) {
  support::ByteWriter writer;
  writer.WriteU8(kJournalVersion);
  writer.WriteU8(static_cast<std::uint8_t>(RecordType::kFinish));
  writer.WriteU32(id);
  writer.WriteU8(static_cast<std::uint8_t>(status));
  writer.WriteU64(finished_at);
  return writer.Take();
}

support::Bytes CampaignJournal::EncodeForget(std::uint32_t id) {
  support::ByteWriter writer;
  writer.WriteU8(kJournalVersion);
  writer.WriteU8(static_cast<std::uint8_t>(RecordType::kForget));
  writer.WriteU32(id);
  return writer.Take();
}

support::Status CampaignJournal::AppendStart(
    std::uint32_t id, CampaignKind kind, std::uint32_t user,
    std::string_view app_name, const RetryPolicy& policy,
    sim::SimTime started_at, std::span<const CampaignRow> rows) {
  return writer_.Append(
      EncodeStart(id, kind, user, app_name, policy, started_at, rows));
}

support::Status CampaignJournal::AppendRows(
    std::uint32_t id, std::span<const JournalRowEntry> entries) {
  return writer_.Append(EncodeRows(id, entries));
}

support::Status CampaignJournal::AppendWave(std::uint32_t id,
                                            std::size_t waves_pushed,
                                            std::uint64_t total_pushes,
                                            sim::SimTime last_push_at,
                                            sim::SimTime next_tick_at) {
  return writer_.Append(EncodeWave(id, waves_pushed, total_pushes,
                                   last_push_at, next_tick_at));
}

support::Status CampaignJournal::AppendFinish(std::uint32_t id,
                                              CampaignStatus status,
                                              sim::SimTime finished_at) {
  return writer_.Append(EncodeFinish(id, status, finished_at));
}

support::Status CampaignJournal::AppendForget(std::uint32_t id) {
  return writer_.Append(EncodeForget(id));
}

support::Status CampaignJournal::Rotate(std::span<const std::uint8_t> image) {
  DACM_RETURN_IF_ERROR(sink_.Rotate(image));
  writer_.ResetByteCount();
  return support::OkStatus();
}

support::Result<std::vector<RecoveredCampaign>> ReplayCampaignJournal(
    std::span<const std::uint8_t> data) {
  std::vector<RecoveredCampaign> campaigns;
  auto find = [&campaigns](std::uint32_t id) -> RecoveredCampaign* {
    if (id >= campaigns.size()) return nullptr;
    return &campaigns[id];
  };

  auto fold = [&](std::span<const std::uint8_t> payload) -> support::Status {
    support::ByteReader reader(payload);
    DACM_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
    if (version != kJournalVersion) {
      return support::Corrupted("unknown journal record version");
    }
    DACM_ASSIGN_OR_RETURN(const std::uint8_t type, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(const std::uint32_t id, reader.ReadU32());
    switch (static_cast<RecordType>(type)) {
      case RecordType::kStart: {
        // Ids are engine slot indices, so starts arrive densely in order.
        if (id != campaigns.size()) {
          return support::Corrupted("journal start out of sequence");
        }
        RecoveredCampaign campaign;
        campaign.id = id;
        DACM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
        if (kind > static_cast<std::uint8_t>(CampaignKind::kRollback)) {
          return support::Corrupted("journal campaign kind out of range");
        }
        campaign.kind = static_cast<CampaignKind>(kind);
        DACM_ASSIGN_OR_RETURN(campaign.user, reader.ReadU32());
        DACM_ASSIGN_OR_RETURN(campaign.app_name, reader.ReadString());
        DACM_RETURN_IF_ERROR(ReadPolicy(reader, campaign.policy));
        DACM_ASSIGN_OR_RETURN(campaign.started_at, reader.ReadU64());
        campaign.next_tick_at = campaign.started_at;
        // A row is at least its VIN's string length.
        DACM_ASSIGN_OR_RETURN(const std::uint32_t row_count,
                              reader.ReadCount(4));
        campaign.rows.reserve(row_count);
        for (std::uint32_t i = 0; i < row_count; ++i) {
          CampaignRow row;
          DACM_ASSIGN_OR_RETURN(row.vin, reader.ReadString());
          campaign.rows.push_back(std::move(row));
        }
        campaigns.push_back(std::move(campaign));
        break;
      }
      case RecordType::kRows: {
        RecoveredCampaign* campaign = find(id);
        if (campaign == nullptr) {
          return support::Corrupted("journal rows before start");
        }
        DACM_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadVarU32());
        for (std::uint32_t i = 0; i < count; ++i) {
          DACM_ASSIGN_OR_RETURN(const std::uint32_t index, reader.ReadVarU32());
          DACM_ASSIGN_OR_RETURN(const std::uint8_t state, reader.ReadU8());
          DACM_ASSIGN_OR_RETURN(const std::uint32_t attempts,
                                reader.ReadVarU32());
          DACM_ASSIGN_OR_RETURN(const std::uint64_t done_at, reader.ReadU64());
          DACM_ASSIGN_OR_RETURN(const std::uint8_t error, reader.ReadU8());
          if (index >= campaign->rows.size() ||
              state > static_cast<std::uint8_t>(CampaignRowState::kFailed) ||
              error > static_cast<std::uint8_t>(support::ErrorCode::kInternal)) {
            return support::Corrupted("journal row entry out of range");
          }
          CampaignRow& row = campaign->rows[index];
          row.state = static_cast<CampaignRowState>(state);
          row.attempts = attempts;
          row.done_at = done_at;
          row.error = static_cast<support::ErrorCode>(error);
        }
        break;
      }
      case RecordType::kWave: {
        RecoveredCampaign* campaign = find(id);
        if (campaign == nullptr) {
          return support::Corrupted("journal wave before start");
        }
        DACM_ASSIGN_OR_RETURN(const std::uint64_t waves, reader.ReadU64());
        campaign->waves_pushed = static_cast<std::size_t>(waves);
        DACM_ASSIGN_OR_RETURN(campaign->total_pushes, reader.ReadU64());
        DACM_ASSIGN_OR_RETURN(campaign->last_push_at, reader.ReadU64());
        DACM_ASSIGN_OR_RETURN(campaign->next_tick_at, reader.ReadU64());
        break;
      }
      case RecordType::kFinish: {
        RecoveredCampaign* campaign = find(id);
        if (campaign == nullptr) {
          return support::Corrupted("journal finish before start");
        }
        DACM_ASSIGN_OR_RETURN(const std::uint8_t status, reader.ReadU8());
        if (status > static_cast<std::uint8_t>(CampaignStatus::kExhausted)) {
          return support::Corrupted("journal campaign status out of range");
        }
        campaign->status = static_cast<CampaignStatus>(status);
        DACM_ASSIGN_OR_RETURN(campaign->finished_at, reader.ReadU64());
        break;
      }
      case RecordType::kForget: {
        RecoveredCampaign* campaign = find(id);
        if (campaign == nullptr) {
          // A compacted journal drops retired campaigns' kStart records
          // and keeps only the tombstone; materialize forgotten
          // placeholder slots so later ids keep their dense alignment.
          // Compaction writes one tombstone per retired slot, so a real
          // id is always below the image's byte length; a larger one is
          // damage, not a hole to fill.
          if (id >= data.size()) {
            return support::Corrupted("journal forget id " +
                                      std::to_string(id) +
                                      " beyond the image");
          }
          DACM_LOG_WARN("journal")
              << "forget tombstone for campaign " << id
              << " with no start record; materializing retired slot";
          while (campaigns.size() <= id) {
            RecoveredCampaign placeholder;
            placeholder.id = static_cast<std::uint32_t>(campaigns.size());
            placeholder.forgotten = true;
            campaigns.push_back(std::move(placeholder));
          }
          break;
        }
        campaign->forgotten = true;
        campaign->rows.clear();
        break;
      }
      default:
        return support::Corrupted("unknown journal record type");
    }
    if (!reader.exhausted()) {
      return support::Corrupted("trailing bytes in journal record");
    }
    return support::OkStatus();
  };

  DACM_RETURN_IF_ERROR(support::ReplayRecords(data, fold).status());
  return campaigns;
}

}  // namespace dacm::server
