// Crash-consistent persistence and kill-and-restart recovery.
//
// Three layers under test, bottom up:
//
//  * storage framing (support/storage.hpp): CRC-framed record streams
//    must replay exactly the durable prefix — torn tails (crash
//    mid-append, fabricated by TruncateTo or a FaultingSink budget) and
//    corrupted frames truncate silently instead of failing recovery;
//
//  * the durable images (server/status_db.hpp, server/journal.hpp):
//    status paragraphs fold last-writer-wins with tombstone erasure, the
//    campaign journal folds per-id to the last committed tick;
//
//  * whole-server recovery: a TrustedServer + CampaignEngine killed
//    mid-campaign (inside one simulator event, via
//    FaultScenario::KillAndRestartServer) is rebuilt from the status DB
//    and journal, resumes the retry cadence without re-pushing converged
//    rows, rematerializes dropped package bytes from the re-uploaded
//    catalog, and — the acceptance bar — produces a Describe()
//    fingerprint byte-identical to an uninterrupted run.
//
// Labelled `recovery` in ctest; the ASan/UBSan and TSan CI jobs run this
// label too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "server/catalog.hpp"
#include "server/journal.hpp"
#include "server/package_cache.hpp"
#include "server/status_db.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "support/bytes.hpp"
#include "support/storage.hpp"
#include "test_util.hpp"

namespace dacm {
namespace {

using server::CampaignJournal;
using server::CampaignKind;
using server::CampaignStatus;
using server::DbState;
using server::InstallState;
using server::JournalRowEntry;
using server::StatusDb;
using server::StatusParagraph;
using server::Want;
using server::CatalogImage;
using server::StatusImage;
using support::CheckpointWriter;
using support::ErrorCode;
using support::FaultingSink;
using support::MemorySink;
using support::RecordWriter;
using support::ReplayRecords;
using support::ReplayStats;

// --- storage framing ---------------------------------------------------------------

support::Bytes Payload(std::string_view text) {
  return support::Bytes(text.begin(), text.end());
}

/// Replays `data` collecting every decoded payload as a string.
ReplayStats Replay(std::span<const std::uint8_t> data,
                   std::vector<std::string>* out) {
  auto stats = ReplayRecords(data, [&](std::span<const std::uint8_t> payload) {
    out->emplace_back(payload.begin(), payload.end());
    return support::OkStatus();
  });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? *stats : ReplayStats{};
}

TEST(RecordStorageTest, FramedRecordsRoundTrip) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("alpha")).ok());
  ASSERT_TRUE(writer.Append(Payload("")).ok());  // empty payloads are legal
  ASSERT_TRUE(writer.Append(Payload("gamma-gamma")).ok());

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.valid_bytes, sink.bytes().size());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded,
            (std::vector<std::string>{"alpha", "", "gamma-gamma"}));
}

TEST(RecordStorageTest, EmptyImageReplaysToNothing) {
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay({}, &decoded);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_TRUE(decoded.empty());
}

TEST(RecordStorageTest, TornTailTruncatesToLastDurableRecord) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("first")).ok());
  ASSERT_TRUE(writer.Append(Payload("second")).ok());
  const std::size_t durable = sink.bytes().size();
  ASSERT_TRUE(writer.Append(Payload("torn-away")).ok());

  // Crash lands mid-frame: only part of the third append survives.
  sink.TruncateTo(durable + 5);
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.valid_bytes, durable);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"first", "second"}));
}

TEST(RecordStorageTest, CrcMismatchStopsReplayAtTheBadFrame) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("good")).ok());
  const std::size_t first_frame = sink.bytes().size();
  ASSERT_TRUE(writer.Append(Payload("flipped")).ok());
  ASSERT_TRUE(writer.Append(Payload("unreachable")).ok());

  support::Bytes image = sink.bytes();
  image[first_frame + 8] ^= 0x40;  // one bit inside the second payload

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(image, &decoded);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.valid_bytes, first_frame);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"good"}));
}

TEST(RecordStorageTest, FaultingSinkProducesExactlyATornTail) {
  MemorySink inner;
  FaultingSink faulty(inner, /*fail_after=*/8 + 5 + 3);  // mid second frame
  RecordWriter writer(faulty);
  ASSERT_TRUE(writer.Append(Payload("alpha")).ok());
  EXPECT_FALSE(faulty.torn());
  EXPECT_FALSE(writer.Append(Payload("beta")).ok());
  EXPECT_TRUE(faulty.torn());
  // Once torn, nothing further reaches the inner sink.
  const std::size_t torn_size = inner.bytes().size();
  EXPECT_FALSE(writer.Append(Payload("gamma")).ok());
  EXPECT_EQ(inner.bytes().size(), torn_size);

  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(inner.bytes(), &decoded);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"alpha"}));
}

TEST(RecordStorageTest, FileSinkAppendsAcrossReopen) {
  const std::string path = "dacm_test_recovery_filesink.log";
  {
    auto sink = support::FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("one")).ok());
    ASSERT_TRUE(writer.Append(Payload("two")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  {
    // A restarted process appends to the surviving log.
    auto sink = support::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("three")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto image = support::ReadFileBytes(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(*image, &decoded);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"one", "two", "three"}));

  EXPECT_EQ(support::ReadFileBytes("dacm_no_such_file.log").status().code(),
            ErrorCode::kNotFound);
  std::remove(path.c_str());
}

TEST(RecordStorageTest, RotateSwapsLogContentAndKeepsAppending) {
  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(Payload("old-1")).ok());
  ASSERT_TRUE(writer.Append(Payload("old-2")).ok());

  CheckpointWriter checkpoint;
  ASSERT_TRUE(checkpoint.Append(Payload("folded")).ok());
  EXPECT_EQ(checkpoint.records(), 1u);
  ASSERT_TRUE(checkpoint.Commit(sink).ok());

  // The log now holds exactly the checkpoint image; appends continue
  // after it.
  EXPECT_EQ(sink.bytes().size(), checkpoint.image_bytes());
  ASSERT_TRUE(writer.Append(Payload("after")).ok());
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"folded", "after"}));
}

TEST(RecordStorageTest, FileSinkRotateCommitsAtomicallyAcrossReopen) {
  const std::string path = "dacm_test_recovery_rotate.log";
  {
    auto sink = support::FileSink::Open(path, /*truncate=*/true);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    RecordWriter writer(**sink);
    ASSERT_TRUE(writer.Append(Payload("pre-rotate")).ok());

    CheckpointWriter checkpoint;
    ASSERT_TRUE(checkpoint.Append(Payload("image")).ok());
    ASSERT_TRUE(checkpoint.Commit(**sink).ok());
    // Rotation is write-temp + sync + rename: no temp file survives.
    EXPECT_EQ(support::ReadFileBytes(path + ".rotate").status().code(),
              ErrorCode::kNotFound);
    // The rotated sink reopened in append mode: the log keeps growing.
    ASSERT_TRUE(writer.Append(Payload("post-rotate")).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  auto image = support::ReadFileBytes(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(*image, &decoded);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(decoded, (std::vector<std::string>{"image", "post-rotate"}));
  std::remove(path.c_str());
}

TEST(RecordStorageTest, FaultedRotationLeavesTheOldLogUntouched) {
  MemorySink inner;
  RecordWriter writer(inner);
  ASSERT_TRUE(writer.Append(Payload("survivor")).ok());
  const support::Bytes before = inner.bytes();

  CheckpointWriter checkpoint;
  ASSERT_TRUE(checkpoint.Append(Payload("never-lands")).ok());
  FaultingSink faulty(inner, /*fail_after=*/4);  // image larger than budget
  EXPECT_FALSE(checkpoint.Commit(faulty).ok());
  EXPECT_TRUE(faulty.torn());
  // All-or-nothing: a failed rotation must not tear the old log — the
  // un-rotated records are still the durable truth.
  EXPECT_EQ(inner.bytes(), before);
  // The image survives the failure, so a retry against a healthy sink
  // commits.
  ASSERT_TRUE(checkpoint.Commit(inner).ok());
  std::vector<std::string> decoded;
  Replay(inner.bytes(), &decoded);
  EXPECT_EQ(decoded, (std::vector<std::string>{"never-lands"}));
}

/// MemorySink that counts Sync() calls — the observable side of the
/// RecordWriter durability knob (for FileSink a Sync is fflush + fsync).
struct CountingSyncSink : support::MemorySink {
  std::size_t syncs = 0;
  support::Status Sync() override {
    ++syncs;
    return support::MemorySink::Sync();
  }
};

TEST(RecordStorageTest, WriterSyncsEveryNthFrameWhenAsked) {
  CountingSyncSink sink;
  RecordWriter writer(sink, /*sync_every_n_frames=*/3);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(writer.Append(Payload("r" + std::to_string(i))).ok());
  }
  // 7 frames at N=3: syncs after frames 3 and 6, the 7th rides until the
  // next boundary — a power loss loses at most N-1 acknowledged frames.
  EXPECT_EQ(sink.syncs, 2u);
  ASSERT_TRUE(writer.Append(Payload("r7")).ok());
  ASSERT_TRUE(writer.Append(Payload("r8")).ok());
  EXPECT_EQ(sink.syncs, 3u);

  // Default (0) never syncs explicitly, matching the historic behavior.
  CountingSyncSink unsynced;
  RecordWriter lazy(unsynced);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(lazy.Append(Payload("x")).ok());
  }
  EXPECT_EQ(unsynced.syncs, 0u);

  // The synced stream replays like any other.
  std::vector<std::string> decoded;
  const ReplayStats stats = Replay(sink.bytes(), &decoded);
  EXPECT_EQ(stats.records, 9u);
  EXPECT_FALSE(stats.truncated);
}

// --- status DB ---------------------------------------------------------------------

StatusParagraph MakeParagraph(std::string vin, std::string app, Want want,
                              DbState state) {
  StatusParagraph paragraph;
  paragraph.vin = std::move(vin);
  paragraph.app = std::move(app);
  paragraph.version = "1.0.0";
  paragraph.want = want;
  paragraph.state = state;
  return paragraph;
}

TEST(StatusDbTest, LastParagraphWinsAndTombstonesErase) {
  MemorySink sink;
  StatusDb db(sink);
  // (V2, maps): half-installed, then fully acknowledged — with the
  // recorded per-ECU port-id claims the recovering server must rebuild.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V2", "maps", Want::kInstall, DbState::kHalfInstalled))
          .ok());
  StatusParagraph final_maps =
      MakeParagraph("V2", "maps", Want::kInstall, DbState::kInstalled);
  StatusParagraph::PluginIds ids;
  ids.plugin = "maps.p0";
  ids.ecu_id = 1;
  ids.unique_ids = {3, 4};
  final_maps.plugins.push_back(ids);
  ASSERT_TRUE(db.Append(final_maps).ok());
  // (V1, nav): installed, then erased by a tombstone.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "nav", Want::kInstall, DbState::kInstalled)).ok());
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "nav", Want::kDeinstall, DbState::kNotInstalled))
          .ok());
  // (V1, maps): an uninstall caught mid-flight.
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kDeinstall, DbState::kHalfRemoved))
          .ok());

  auto replayed = StatusDb::Replay(sink.bytes());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), 2u);  // sorted by (vin, app); tombstone gone
  EXPECT_EQ((*replayed)[0].vin, "V1");
  EXPECT_EQ((*replayed)[0].app, "maps");
  EXPECT_EQ((*replayed)[0].want, Want::kDeinstall);
  EXPECT_EQ((*replayed)[0].state, DbState::kHalfRemoved);
  EXPECT_EQ((*replayed)[1].vin, "V2");
  EXPECT_EQ((*replayed)[1].state, DbState::kInstalled);
  ASSERT_EQ((*replayed)[1].plugins.size(), 1u);
  EXPECT_EQ((*replayed)[1].plugins[0].plugin, "maps.p0");
  EXPECT_EQ((*replayed)[1].plugins[0].ecu_id, 1u);
  EXPECT_EQ((*replayed)[1].plugins[0].unique_ids, (std::vector<std::uint8_t>{3, 4}));
}

TEST(StatusDbTest, DecodableButInvalidParagraphIsCorrupted) {
  // A frame whose CRC is intact but whose payload violates the paragraph
  // schema (want = 7) must fail replay loudly — that is corruption, not
  // a torn tail.
  support::ByteWriter payload;
  payload.WriteU8(1);  // paragraph version
  payload.WriteString("VIN-X");
  payload.WriteString("maps");
  payload.WriteString("1.0.0");
  payload.WriteU8(7);  // want: out of range
  payload.WriteU8(2);
  payload.WriteVarU32(0);  // no plugins

  MemorySink sink;
  RecordWriter writer(sink);
  ASSERT_TRUE(writer.Append(payload.bytes()).ok());
  EXPECT_EQ(StatusDb::Replay(sink.bytes()).status().code(), ErrorCode::kCorrupted);
}

TEST(StatusDbTest, TornTailYieldsThePriorParagraph) {
  MemorySink sink;
  StatusDb db(sink);
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kInstall, DbState::kHalfInstalled))
          .ok());
  const std::size_t durable = sink.bytes().size();
  ASSERT_TRUE(
      db.Append(MakeParagraph("V1", "maps", Want::kInstall, DbState::kInstalled)).ok());
  sink.TruncateTo(durable + 6);

  auto replayed = StatusDb::Replay(sink.bytes());
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  // The crash forgot the acknowledgement: recovery re-arms the push.
  EXPECT_EQ((*replayed)[0].state, DbState::kHalfInstalled);
}

/// A minimal but realistic checkpoint image: one catalog kImage record
/// (as compaction writes first) followed by two live paragraphs.
support::Bytes MakeCheckpointImage() {
  CatalogImage catalog;
  catalog.users.push_back(server::User{"ops", {}});
  catalog.bindings.push_back(server::CatalogBinding{"V1", "m", 0});
  CheckpointWriter checkpoint;
  EXPECT_TRUE(checkpoint.Append(server::EncodeCatalogImage(catalog)).ok());
  EXPECT_TRUE(
      checkpoint
          .Append(StatusDb::EncodeParagraph(
              MakeParagraph("V1", "maps", Want::kInstall, DbState::kInstalled)))
          .ok());
  EXPECT_TRUE(
      checkpoint
          .Append(StatusDb::EncodeParagraph(MakeParagraph(
              "V2", "maps", Want::kInstall, DbState::kHalfInstalled)))
          .ok());
  return checkpoint.image();
}

TEST(StatusDbTest, CheckpointImageReplaysCatalogAndParagraphs) {
  const support::Bytes image = MakeCheckpointImage();
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->catalog.users.size(), 1u);
  EXPECT_EQ(replayed->catalog.bindings.size(), 1u);
  ASSERT_EQ(replayed->paragraphs.size(), 2u);
  EXPECT_FALSE(replayed->stats.truncated);
  // A checkpoint IS the minimal live image: replaying it reports exactly
  // its own size as the live bytes (the compaction guard's denominator).
  EXPECT_EQ(replayed->live_bytes, image.size());
}

TEST(StatusDbTest, TornCheckpointTailRecoversTheDurablePrefix) {
  support::Bytes image = MakeCheckpointImage();
  image.resize(image.size() - 5);  // crash mid-final-paragraph
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed->stats.truncated);
  EXPECT_EQ(replayed->catalog.users.size(), 1u);
  ASSERT_EQ(replayed->paragraphs.size(), 1u);
  EXPECT_EQ(replayed->paragraphs[0].vin, "V1");
}

TEST(StatusDbTest, BitFlippedCheckpointFrameStopsReplayThere) {
  support::Bytes image = MakeCheckpointImage();
  image[10] ^= 0x01;  // inside the catalog image record's payload
  auto replayed = StatusDb::ReplayImage(image);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // The very first frame failed its CRC: nothing is durable.
  EXPECT_TRUE(replayed->stats.truncated);
  EXPECT_TRUE(replayed->catalog.empty());
  EXPECT_TRUE(replayed->paragraphs.empty());
}

TEST(StatusDbTest, EmptyLogReplaysToAnEmptyImage) {
  auto replayed = StatusDb::ReplayImage({});
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->catalog.empty());
  EXPECT_TRUE(replayed->paragraphs.empty());
  EXPECT_FALSE(replayed->stats.truncated);
}

std::string RandomText(sim::Rng& rng, std::size_t min_len, std::size_t max_len) {
  std::string text(rng.NextInRange(min_len, max_len), '\0');
  for (char& c : text) c = static_cast<char>(rng.NextBelow(256));
  return text;
}

void ExpectSameParagraph(const StatusParagraph& a, const StatusParagraph& b) {
  EXPECT_EQ(a.vin, b.vin);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.want, b.want);
  EXPECT_EQ(a.state, b.state);
  ASSERT_EQ(a.plugins.size(), b.plugins.size());
  for (std::size_t i = 0; i < a.plugins.size(); ++i) {
    EXPECT_EQ(a.plugins[i].plugin, b.plugins[i].plugin) << i;
    EXPECT_EQ(a.plugins[i].ecu_id, b.plugins[i].ecu_id) << i;
    EXPECT_EQ(a.plugins[i].unique_ids, b.plugins[i].unique_ids) << i;
  }
}

// Property: the view encoder the server writes through (a row's VIN plus
// its manifest) produces exactly the bytes of EncodeParagraph on the
// equivalent StatusParagraph, and those bytes decode back to it — for
// random manifests (0-64 plug-ins, 0-255 ids each), VINs on both sides
// of the 15-char small-string boundary, and every Want x DbState.  One
// scratch buffer serves every draw, so a shrinking record must not keep
// stale bytes from a longer one.  Set DACM_TEST_SEED to replay.
TEST(StatusDbTest, ViewEncoderMatchesParagraphEncodingProperty) {
  DACM_PROPERTY_RNG(rng);
  constexpr Want kWants[] = {Want::kInstall, Want::kDeinstall};
  constexpr DbState kStates[] = {DbState::kNotInstalled, DbState::kHalfInstalled,
                                 DbState::kInstalled, DbState::kHalfRemoved,
                                 DbState::kErrorState};
  support::Bytes scratch;
  for (int draw = 0; draw < 60; ++draw) {
    server::BatchManifest manifest;
    manifest.app_name = RandomText(rng, 0, 24);
    manifest.version = RandomText(rng, 0, 12);
    const std::size_t plugin_count = rng.NextInRange(0, 64);
    for (std::size_t p = 0; p < plugin_count; ++p) {
      server::BatchManifest::Plugin plugin;
      plugin.name = RandomText(rng, 0, 40);
      plugin.ecu_id = static_cast<std::uint32_t>(rng.NextU64());
      const std::size_t id_count = rng.NextInRange(0, 255);
      for (std::size_t i = 0; i < id_count; ++i) {
        pirte::PicEntry entry;
        entry.unique_id = static_cast<std::uint8_t>(rng.NextBelow(256));
        plugin.pic.entries.push_back(entry);
      }
      manifest.plugins.push_back(std::move(plugin));
    }
    const std::string vin =
        draw % 2 == 0 ? RandomText(rng, 0, 15) : RandomText(rng, 16, 40);

    StatusParagraph paragraph;
    paragraph.vin = vin;
    paragraph.app = manifest.app_name;
    paragraph.version = manifest.version;
    for (const server::BatchManifest::Plugin& plugin : manifest.plugins) {
      StatusParagraph::PluginIds ids;
      ids.plugin = plugin.name;
      ids.ecu_id = plugin.ecu_id;
      for (const pirte::PicEntry& entry : plugin.pic.entries) {
        ids.unique_ids.push_back(entry.unique_id);
      }
      paragraph.plugins.push_back(std::move(ids));
    }

    for (const Want want : kWants) {
      for (const DbState state : kStates) {
        SCOPED_TRACE(::testing::Message()
                     << "draw " << draw << " want " << server::WantName(want)
                     << " state " << server::DbStateName(state));
        paragraph.want = want;
        paragraph.state = state;
        StatusDb::EncodeParagraph(
            server::ParagraphHead{vin, manifest.app_name, manifest.version,
                                  want, state},
            &manifest, scratch);
        const support::Bytes expected = StatusDb::EncodeParagraph(paragraph);
        ASSERT_EQ(scratch, expected);
        auto decoded = StatusDb::DecodeParagraph(scratch);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ExpectSameParagraph(*decoded, paragraph);
      }
    }

    // The tombstone form (no manifest) is the plug-in-less paragraph.
    StatusParagraph tombstone = paragraph;
    tombstone.plugins.clear();
    tombstone.want = Want::kDeinstall;
    tombstone.state = DbState::kNotInstalled;
    StatusDb::EncodeParagraph(
        server::ParagraphHead{vin, manifest.app_name, manifest.version,
                              Want::kDeinstall, DbState::kNotInstalled},
        nullptr, scratch);
    ASSERT_EQ(scratch, StatusDb::EncodeParagraph(tombstone));
  }
}

// --- campaign journal --------------------------------------------------------------

TEST(CampaignJournalTest, FoldsToTheLastCommittedTick) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<server::CampaignRow> rows(2);
  rows[0].vin = "VIN-A";
  rows[1].vin = "VIN-B";
  server::RetryPolicy policy;
  policy.max_waves = 3;
  ASSERT_TRUE(journal
                  .AppendStart(/*id=*/0, CampaignKind::kDeploy, /*user=*/7, "maps",
                               policy, /*started_at=*/1000, rows)
                  .ok());
  std::vector<JournalRowEntry> tick1(1);
  tick1[0].index = 1;
  tick1[0].state = server::CampaignRowState::kDone;
  tick1[0].attempts = 2;
  tick1[0].done_at = 5000;
  ASSERT_TRUE(journal.AppendRows(0, tick1).ok());
  ASSERT_TRUE(journal
                  .AppendWave(0, /*waves_pushed=*/1, /*total_pushes=*/2,
                              /*last_push_at=*/4000, /*next_tick_at=*/6000)
                  .ok());
  const std::size_t committed = sink.bytes().size();

  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 1u);
  const server::RecoveredCampaign& campaign = (*recovered)[0];
  EXPECT_EQ(campaign.id, 0u);
  EXPECT_EQ(campaign.user, 7u);
  EXPECT_EQ(campaign.app_name, "maps");
  EXPECT_EQ(campaign.policy.max_waves, 3u);
  EXPECT_EQ(campaign.started_at, 1000u);
  ASSERT_EQ(campaign.rows.size(), 2u);
  EXPECT_EQ(campaign.rows[0].state, server::CampaignRowState::kPending);
  EXPECT_EQ(campaign.rows[1].state, server::CampaignRowState::kDone);
  EXPECT_EQ(campaign.rows[1].attempts, 2u);
  EXPECT_EQ(campaign.rows[1].done_at, 5000u);
  EXPECT_EQ(campaign.waves_pushed, 1u);
  EXPECT_EQ(campaign.total_pushes, 2u);
  EXPECT_EQ(campaign.next_tick_at, 6000u);
  EXPECT_EQ(campaign.status, CampaignStatus::kRunning);
  EXPECT_FALSE(campaign.forgotten);

  // A finish marker closes the fold...
  ASSERT_TRUE(journal.AppendFinish(0, CampaignStatus::kConverged, 9000).ok());
  recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)[0].status, CampaignStatus::kConverged);
  EXPECT_EQ((*recovered)[0].finished_at, 9000u);

  // ...and a tail torn mid-record rewinds to the previous tick.
  sink.TruncateTo(committed + 3);
  recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)[0].status, CampaignStatus::kRunning);
  EXPECT_EQ((*recovered)[0].next_tick_at, 6000u);
}

TEST(CampaignJournalTest, RowsWithoutAStartAreCorrupted) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<JournalRowEntry> orphan(1);
  orphan[0].index = 0;
  ASSERT_TRUE(journal.AppendRows(/*id=*/5, orphan).ok());
  EXPECT_EQ(server::ReplayCampaignJournal(sink.bytes()).status().code(),
            ErrorCode::kCorrupted);
}

TEST(CampaignJournalTest, ForgetRecordTombstonesTheCampaign) {
  MemorySink sink;
  CampaignJournal journal(sink);
  std::vector<server::CampaignRow> rows(1);
  rows[0].vin = "VIN-A";
  ASSERT_TRUE(journal
                  .AppendStart(0, CampaignKind::kDeploy, 0, "maps",
                               server::RetryPolicy{}, 0, rows)
                  .ok());
  ASSERT_TRUE(journal.AppendFinish(0, CampaignStatus::kConverged, 100).ok());
  ASSERT_TRUE(journal.AppendForget(0).ok());
  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_TRUE((*recovered)[0].forgotten);
}

TEST(CampaignJournalTest, ForgetWithoutAStartBecomesAForgottenPlaceholder) {
  // A compacted journal drops retired campaigns' full record chains and
  // keeps only the bare Forget tombstone — replay must materialize the
  // hole (and any implied earlier holes), not fail.
  MemorySink sink;
  CampaignJournal journal(sink);
  ASSERT_TRUE(journal.AppendForget(2).ok());
  std::vector<server::CampaignRow> rows(1);
  rows[0].vin = "VIN-A";
  ASSERT_TRUE(journal
                  .AppendStart(3, CampaignKind::kDeploy, 0, "maps",
                               server::RetryPolicy{}, 0, rows)
                  .ok());
  auto recovered = server::ReplayCampaignJournal(sink.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 4u);
  for (std::uint32_t id = 0; id <= 2; ++id) {
    EXPECT_TRUE((*recovered)[id].forgotten) << id;
  }
  EXPECT_FALSE((*recovered)[3].forgotten);
  EXPECT_EQ((*recovered)[3].app_name, "maps");
}

// --- hostile element counts -------------------------------------------------------

/// Replays `payload` as one CRC-framed record of a status log.
support::Result<StatusImage> ReplayOneRecord(const support::ByteWriter& payload) {
  MemorySink sink;
  RecordWriter writer(sink);
  EXPECT_TRUE(writer.Append(payload.bytes()).ok());
  return StatusDb::ReplayImage(sink.bytes());
}

TEST(ReplayDecodeTest, HostileElementCountsAreCorruptedNotAllocated) {
  // Each input is intact framing around a count no record of its size can
  // hold.  Replay must answer kCorrupted instead of reserving (or
  // materializing) billions of elements.
  support::ByteWriter paragraph;  // 20 bytes
  paragraph.WriteU8(1);  // paragraph version
  paragraph.WriteString("");
  paragraph.WriteString("");
  paragraph.WriteString("");
  paragraph.WriteU8(static_cast<std::uint8_t>(Want::kInstall));
  paragraph.WriteU8(static_cast<std::uint8_t>(DbState::kInstalled));
  paragraph.WriteVarU32(0xFFFFFFFFu);  // plug-in count
  EXPECT_EQ(ReplayOneRecord(paragraph).status().code(), ErrorCode::kCorrupted);

  support::ByteWriter image;
  image.WriteU8(static_cast<std::uint8_t>(server::CatalogRecordKind::kImage));
  image.WriteU8(1);  // image version
  image.WriteVarU32(0xFFFFFFFFu);  // blob-pool count
  EXPECT_EQ(ReplayOneRecord(image).status().code(), ErrorCode::kCorrupted);

  // A tombstone with no start would materialize a placeholder per lower id.
  MemorySink journal_log;
  CampaignJournal journal(journal_log);
  ASSERT_TRUE(journal.AppendForget(0x7fffffffu).ok());
  EXPECT_EQ(server::ReplayCampaignJournal(journal_log.bytes()).status().code(),
            ErrorCode::kCorrupted);
}

// --- whole-server kill-and-restart -------------------------------------------------

/// Quick retry cadence (mirrors test_campaign.cpp): settle 50 ms,
/// backoff 200 ms doubling.
server::RetryPolicy FastPolicy(std::size_t max_waves = 6) {
  server::RetryPolicy policy;
  policy.max_waves = max_waves;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 2 * sim::kSecond;
  return policy;
}

/// A campaign world whose server + engine can be killed and rebuilt from
/// the durable images mid-run.  The sinks, network, fleet and journal
/// outlive the kill — exactly the split a process crash produces (the
/// fleet is *other* machines; the logs are the disk).
struct RecoveryRig {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  support::MemorySink status_log;
  support::MemorySink journal_log;
  CampaignJournal journal{journal_log};
  std::unique_ptr<server::TrustedServer> server;
  std::unique_ptr<server::CampaignEngine> engine;
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;
  std::uint64_t compact_after_bytes;
  /// Everything uploaded, for the re-upload flavor of recovery (the
  /// catalog is also persisted in the log now — RestartFromLogOnly below
  /// recovers without touching this).
  std::vector<fes::SyntheticAppParams> catalog;

  explicit RecoveryRig(std::size_t vehicles,
                       std::uint64_t compact_watermark = 0)
      : compact_after_bytes(compact_watermark) {
    NewServer();
    fes::ScriptedFleetOptions options;
    options.vehicle_count = vehicles;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, *server,
                                                 options);
    EXPECT_TRUE(fleet->BindAndConnect(user).ok());
    NewEngine();
  }

  /// A server with no catalog: what a restarted process has before
  /// recovery runs.
  void NewBareServer() {
    server::ServerOptions options;
    options.status_sink = &status_log;
    options.compact_after_bytes = compact_after_bytes;
    server = std::make_unique<server::TrustedServer>(network, "srv:443", options);
    EXPECT_TRUE(server->Start().ok());
  }

  void NewServer() {
    NewBareServer();
    EXPECT_TRUE(server->UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server->CreateUser("ops");
  }

  void NewEngine() {
    engine = std::make_unique<server::CampaignEngine>(simulator, *server);
    engine->AttachJournal(&journal);
  }

  void UploadApp(const std::string& name, std::uint32_t plugins = 2) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.target_ecu = 1;
    catalog.push_back(params);
    EXPECT_TRUE(server->UploadApp(fes::MakeSyntheticApp(params)).ok());
  }

  /// The crash: engine first (its timers go inert via the alive token),
  /// then the server (unlistens, closes every Pusher connection).
  void KillServer() {
    engine.reset();
    server.reset();
  }

  /// The documented recovery order (server.hpp): rebuild the catalog
  /// from uploads, re-bind the fleet, replay the status DB, reconnect,
  /// then resume campaigns from the journal.
  void RestartAndRecover() {
    NewServer();
    for (const fes::SyntheticAppParams& params : catalog) {
      EXPECT_TRUE(server->UploadApp(fes::MakeSyntheticApp(params)).ok());
    }
    for (const std::string& vin : fleet->vins()) {
      EXPECT_TRUE(server->BindVehicle(user, vin, "rpi-testbed").ok());
    }
    const support::Status recovered = server->RecoverInstallDb(status_log.bytes());
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    fleet->RetargetServer(*server);
    fleet->RedialDead();
    NewEngine();
    const support::Status resumed = engine->Recover(journal_log.bytes());
    EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  }

  /// A restarted process scans each log and truncates the torn tail, so
  /// post-restart appends land after the durable prefix instead of
  /// behind unreachable garbage.
  static void TruncateToDurable(support::MemorySink& sink) {
    auto stats = ReplayRecords(
        sink.bytes(), [](std::span<const std::uint8_t>) {
          return support::OkStatus();
        });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    sink.TruncateTo(stats->valid_bytes);
  }

  /// Recovery with NOTHING re-uploaded: the status log's catalog records
  /// alone must make the restarted server serviceable.
  void RestartFromLogOnly() {
    TruncateToDurable(status_log);
    TruncateToDurable(journal_log);
    NewBareServer();
    const support::Status recovered = server->RecoverInstallDb(status_log.bytes());
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    fleet->RetargetServer(*server);
    fleet->RedialDead();
    NewEngine();
    const support::Status resumed = engine->Recover(journal_log.bytes());
    EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  }
};

TEST(RecoveryTest, KilledBeforeAnyAckRematerializesPackagesAndConverges) {
  RecoveryRig rig(/*vehicles=*/4);
  rig.UploadApp("maps");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/3);

  auto id = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                    FastPolicy());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Wave 1 pushes at T0; deliveries land at T0 + 1 ms.  The WAN drops at
  // T0 + 0.25 ms — so the batches still reach the vehicles, but every
  // acknowledgement send fails — and the server dies at T0 + 0.5 ms.
  // What survives: four half-installed status paragraphs (written ahead
  // of the pushes) and the journal's committed wave-1 tick.  No package
  // bytes survive anywhere.
  faults.LinkFlapAfter(sim::kMillisecond / 4,
                       sim::kMillisecond + sim::kMillisecond / 2);
  faults.KillAndRestartServer(
      sim::kMillisecond / 2, [&rig] { rig.KillServer(); },
      [&rig] { rig.RestartAndRecover(); });
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine->Finished(*id));
  auto snapshot = *rig.engine->Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 4u);
  EXPECT_EQ(snapshot.waves_pushed, 2u);
  EXPECT_EQ(snapshot.total_pushes, 8u);  // 4 original + 4 recovered repushes
  // The recovered rows carried no package bytes: the retry wave had to
  // regenerate them from the re-uploaded catalog before re-pushing.
  EXPECT_EQ(rig.server->stats().repushes, 4u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
}

TEST(RecoveryTest, ForgottenCampaignStaysForgottenAndConvergedRowsStayDone) {
  RecoveryRig rig(/*vehicles=*/2);
  rig.UploadApp("maps");
  auto first = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(first.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*first));
  ASSERT_TRUE(rig.engine->Forget(*first).ok());

  rig.KillServer();
  rig.RestartAndRecover();

  // The forget tombstone survives recovery: the slot is a hole, not a
  // resurrected campaign.
  EXPECT_EQ(rig.engine->Snapshot(*first).status().code(), ErrorCode::kNotFound);

  // A fresh campaign over the recovered fleet: every row was already
  // installed per the status DB, so the wave converges with zero pushes —
  // the recovered server must not re-push converged rows.
  const std::uint64_t batches_before = rig.fleet->batches_received();
  auto second = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                        FastPolicy());
  ASSERT_TRUE(second.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*second));
  auto snapshot = *rig.engine->Snapshot(*second);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.total_pushes, 0u);
  EXPECT_EQ(rig.fleet->batches_received(), batches_before);
  EXPECT_EQ(rig.server->stats().repushes, 0u);
}

/// What one fleet campaign run looks like from the outside — everything
/// the byte-identical acceptance check compares.
struct CampaignOutcome {
  std::string describe;
  CampaignStatus status = CampaignStatus::kRunning;
  std::size_t done = 0;
  std::uint64_t batches_received = 0;
};

/// Runs a 1k-vehicle campaign over 20% offline churn; when
/// `kill_mid_campaign`, the server + engine die at T0 + 500 ms — the
/// quiet window between the committed wave-2 evaluation (T0 + 300 ms)
/// and wave 3 (T0 + 700 ms) — and are rebuilt from the durable images
/// inside the same simulator event.
CampaignOutcome RunChurnedFleetCampaign(bool kill_mid_campaign) {
  RecoveryRig rig(/*vehicles=*/1000);
  rig.UploadApp("fleet-app");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/1914);
  faults.AddOfflineChurn(*rig.fleet, /*fraction=*/0.20,
                         /*horizon=*/10 * sim::kMillisecond,
                         /*min_offline=*/100 * sim::kMillisecond,
                         /*max_offline=*/400 * sim::kMillisecond);

  auto id = rig.engine->StartDeploy(rig.user, "fleet-app", rig.fleet->vins(),
                                    FastPolicy());
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (kill_mid_campaign) {
    faults.KillAndRestartServer(
        500 * sim::kMillisecond, [&rig] { rig.KillServer(); },
        [&rig] { rig.RestartAndRecover(); });
  }
  rig.simulator.Run();

  CampaignOutcome outcome;
  outcome.describe = rig.engine->Describe(*id);
  outcome.batches_received = rig.fleet->batches_received();
  auto snapshot = rig.engine->Snapshot(*id);
  EXPECT_TRUE(snapshot.ok());
  if (snapshot.ok()) {
    outcome.status = snapshot->status;
    outcome.done = snapshot->done;
  }
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "fleet-app"), InstallState::kInstalled)
        << vin;
  }
  return outcome;
}

TEST(RecoveryTest, KilledMidCampaignServerResumesByteIdenticallyAtFleetScale) {
  const CampaignOutcome uninterrupted = RunChurnedFleetCampaign(false);
  const CampaignOutcome killed = RunChurnedFleetCampaign(true);

  EXPECT_EQ(uninterrupted.status, CampaignStatus::kConverged);
  EXPECT_EQ(killed.status, CampaignStatus::kConverged);
  EXPECT_EQ(killed.done, 1000u);
  // The acceptance bar: the recovered run's full campaign fingerprint —
  // per-row states, attempts, done times, wave and push totals — is
  // byte-identical to the run that never died, and the fleet saw exactly
  // the same batch pushes (nothing converged was re-pushed).
  EXPECT_EQ(killed.describe, uninterrupted.describe);
  EXPECT_EQ(killed.batches_received, uninterrupted.batches_received);
}

// --- persistent catalog ------------------------------------------------------------

TEST(RecoveryTest, RecoveredCatalogMakesServerServiceableWithoutReuploads) {
  RecoveryRig rig(/*vehicles=*/6);
  rig.UploadApp("maps");
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/7);

  auto id = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                    FastPolicy());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Same shape as the rematerialization test above, but the restart
  // replays the LOG ALONE: no model re-upload, no app re-upload, no user
  // re-creation, no re-binding.  The catalog records in the status log
  // must carry everything — including the app binaries the retry wave
  // regenerates packages from.
  faults.LinkFlapAfter(sim::kMillisecond / 4,
                       sim::kMillisecond + sim::kMillisecond / 2);
  faults.KillAndRestartServer(
      sim::kMillisecond / 2, [&rig] { rig.KillServer(); },
      [&rig] { rig.RestartFromLogOnly(); });
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine->Finished(*id));
  auto snapshot = *rig.engine->Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 6u);
  EXPECT_TRUE(rig.server->HasApp("maps"));
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
  // The recovered rows had no package bytes; the pushes that converged
  // them were materialized from the *recovered* catalog.
  EXPECT_GT(rig.server->stats().repushes, 0u);
}

/// Recovers a fresh server from `image` and returns its fleet fingerprint
/// text.
std::string RecoverDescribeFleet(RecoveryRig& rig,
                                 std::span<const std::uint8_t> image) {
  server::TrustedServer fresh(rig.network, "srv-recover:1");
  const support::Status recovered = fresh.RecoverInstallDb(image);
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  return fresh.DescribeFleet();
}

TEST(RecoveryTest, CompactedLogRecoversIdenticallyToTheRawLog) {
  RecoveryRig rig(/*vehicles=*/6);
  rig.UploadApp("maps");
  rig.UploadApp("nav", /*plugins=*/3);
  for (const char* app : {"maps", "nav"}) {
    auto id = rig.engine->StartDeploy(rig.user, app, rig.fleet->vins(),
                                      FastPolicy());
    ASSERT_TRUE(id.ok());
    rig.simulator.Run();
    ASSERT_TRUE(rig.engine->Finished(*id));
  }

  const support::Bytes raw = rig.status_log.bytes();
  ASSERT_TRUE(rig.server->Compact().ok());
  EXPECT_EQ(rig.server->stats().compactions, 1u);
  const support::Bytes& compacted = rig.status_log.bytes();
  EXPECT_LT(compacted.size(), raw.size());

  // Post-compaction the log IS the live image: well under the 2x guard.
  auto replayed = StatusDb::ReplayImage(compacted);
  ASSERT_TRUE(replayed.ok());
  EXPECT_LE(compacted.size(), 2 * replayed->live_bytes);

  const std::string live = rig.server->DescribeFleet();
  EXPECT_EQ(RecoverDescribeFleet(rig, raw), live);
  EXPECT_EQ(RecoverDescribeFleet(rig, compacted), live);
}

TEST(RecoveryTest, WatermarkCompactionBoundsTheLogAcrossFiveCampaigns) {
  // Five back-to-back fleet campaigns with a small watermark: the status
  // log must stay bounded by the live state, not grow with history.
  RecoveryRig rig(/*vehicles=*/50,
                  /*compact_watermark=*/16 * 1024);
  rig.engine->SetJournalCompactionWatermark(8 * 1024);
  for (int i = 1; i <= 5; ++i) {
    const std::string app = "app-" + std::to_string(i);
    rig.UploadApp(app);
    auto id = rig.engine->StartDeploy(rig.user, app, rig.fleet->vins(),
                                      FastPolicy());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    rig.simulator.Run();
    ASSERT_TRUE(rig.engine->Finished(*id));
    EXPECT_EQ(rig.engine->Snapshot(*id)->status, CampaignStatus::kConverged);
  }
  // The watermark actually fired mid-run...
  EXPECT_GE(rig.server->stats().compactions, 1u);
  // ...and the clean-shutdown compaction folds the log to the live bytes.
  ASSERT_TRUE(rig.server->Compact().ok());
  ASSERT_TRUE(rig.engine->CompactJournal().ok());
  auto replayed = StatusDb::ReplayImage(rig.status_log.bytes());
  ASSERT_TRUE(replayed.ok());
  EXPECT_LE(rig.status_log.bytes().size(), 2 * replayed->live_bytes);
  EXPECT_EQ(replayed->paragraphs.size(), 50u * 5u);

  // The compacted pair of logs still recovers a serviceable world.
  rig.KillServer();
  rig.RestartFromLogOnly();
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(rig.server->HasApp("app-" + std::to_string(i)));
  }
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server->AppState(vin, "app-5"), InstallState::kInstalled) << vin;
  }
}

TEST(RecoveryTest, JournalCompactionDropsRetiredCampaigns) {
  RecoveryRig rig(/*vehicles=*/4);
  rig.UploadApp("maps");
  auto first = rig.engine->StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(first.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*first));
  ASSERT_TRUE(rig.engine->Forget(*first).ok());

  rig.UploadApp("nav");
  auto second = rig.engine->StartDeploy(rig.user, "nav", rig.fleet->vins(),
                                        FastPolicy());
  ASSERT_TRUE(second.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine->Finished(*second));
  const std::string describe_before = rig.engine->Describe(*second);

  const std::size_t size_before = rig.journal_log.bytes().size();
  ASSERT_TRUE(rig.engine->CompactJournal().ok());
  // The Forget-growth fix: the retired campaign's whole record chain is
  // gone, only its tombstone (and the live campaign's fold) remain.
  EXPECT_LT(rig.journal_log.bytes().size(), size_before);
  auto recovered = server::ReplayCampaignJournal(rig.journal_log.bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_TRUE((*recovered)[0].forgotten);
  EXPECT_EQ((*recovered)[1].status, CampaignStatus::kConverged);

  // A restart from the compacted journal reproduces the campaign
  // fingerprint byte-identically and keeps the retired slot a hole.
  rig.KillServer();
  rig.RestartFromLogOnly();
  EXPECT_EQ(rig.engine->Describe(*second), describe_before);
  EXPECT_EQ(rig.engine->Snapshot(*first).status().code(), ErrorCode::kNotFound);
}

// --- degraded durability -----------------------------------------------------------

TEST(RecoveryTest, SinkFailureDegradesDurabilityStickilyAfterBoundedRetries) {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  MemorySink inner;
  FaultingSink faulty(inner, /*fail_after=*/10);  // tears the first record
  server::ServerOptions options;
  options.status_sink = &faulty;
  server::TrustedServer server(network, "srv:443", options);
  EXPECT_FALSE(server.stats().durability_degraded);

  // The catalog record for the model upload exceeds the sink budget: the
  // append fails, is retried the bounded number of times, and the server
  // goes (stickily) degraded — but the mutation itself succeeds.
  EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  server::ServerStats stats = server.stats();
  EXPECT_TRUE(stats.durability_degraded);
  EXPECT_EQ(stats.status_write_retries, 3u);
  EXPECT_EQ(stats.status_writes_lost, 1u);

  // Once degraded: single-attempt writes (no retry storm against a dead
  // sink), losses keep counting, availability is unaffected.
  EXPECT_TRUE(server.CreateUser("ops").ok());
  stats = server.stats();
  EXPECT_TRUE(stats.durability_degraded);
  EXPECT_EQ(stats.status_write_retries, 3u);
  EXPECT_EQ(stats.status_writes_lost, 2u);
}

}  // namespace
}  // namespace dacm
