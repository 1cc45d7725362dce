#include "server/status_db.hpp"

#include <cstring>
#include <map>
#include <utility>

#include "server/package_cache.hpp"
#include "support/bytes.hpp"

namespace dacm::server {
namespace {

constexpr std::uint8_t kParagraphVersion = 1;

// Plug-in accessors for the two paragraph sources: a decoded
// StatusParagraph and a live row's manifest.
std::string_view PluginName(const StatusParagraph::PluginIds& plugin) {
  return plugin.plugin;
}
std::string_view PluginName(const BatchManifest::Plugin& plugin) {
  return plugin.name;
}
const std::vector<std::uint8_t>& PluginIdList(
    const StatusParagraph::PluginIds& plugin) {
  return plugin.unique_ids;
}
const std::vector<pirte::PicEntry>& PluginIdList(
    const BatchManifest::Plugin& plugin) {
  return plugin.pic.entries;
}
std::uint8_t UniqueId(std::uint8_t id) { return id; }
std::uint8_t UniqueId(const pirte::PicEntry& entry) { return entry.unique_id; }

/// Encoded size of a paragraph: the encoder below sizes its buffer once.
template <typename Plugin>
std::size_t EncodedSize(const ParagraphHead& head,
                        std::span<const Plugin> plugins) {
  std::size_t size = 1 + 3 * 4 + head.vin.size() + head.app.size() +
                     head.version.size() + 2 +
                     support::VarU32Size(
                         static_cast<std::uint32_t>(plugins.size()));
  for (const Plugin& plugin : plugins) {
    const std::size_t ids = PluginIdList(plugin).size();
    size += 4 + PluginName(plugin).size() + 4 +
            support::VarU32Size(static_cast<std::uint32_t>(ids)) + ids;
  }
  return size;
}

/// The paragraph encoder — the only place the byte format is written:
///   u8 version | str vin | str app | str version | u8 want | u8 state |
///   varu32 n | n x (str plugin | u32 ecu | varu32 k | k x u8 unique id)
/// with str = u32 length + bytes, scalars little-endian (ByteReader's
/// format, which DecodeParagraph reads back).  It sizes the buffer once
/// and stores through a pointer: the same fields through ByteWriter's
/// per-field growth checks cost twice as much per paragraph, and fleet
/// rollbacks 6% end to end.
template <typename Plugin>
void EncodeInto(const ParagraphHead& head, std::span<const Plugin> plugins,
                support::Bytes& out) {
  out.resize(EncodedSize(head, plugins));
  std::uint8_t* at = out.data();
  auto u8 = [&at](std::uint8_t v) { *at++ = v; };
  auto u32 = [&at](std::uint32_t v) {
    support::StoreLeU32(at, v);
    at += 4;
  };
  auto var_u32 = [&at](std::uint32_t v) {
    for (; v >= 0x80; v >>= 7) *at++ = static_cast<std::uint8_t>(v | 0x80);
    *at++ = static_cast<std::uint8_t>(v);
  };
  auto str = [&at, &u32](std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(at, s.data(), s.size());
    at += s.size();
  };
  u8(kParagraphVersion);
  str(head.vin);
  str(head.app);
  str(head.version);
  u8(static_cast<std::uint8_t>(head.want));
  u8(static_cast<std::uint8_t>(head.state));
  var_u32(static_cast<std::uint32_t>(plugins.size()));
  for (const Plugin& plugin : plugins) {
    str(PluginName(plugin));
    u32(plugin.ecu_id);
    const auto& ids = PluginIdList(plugin);
    var_u32(static_cast<std::uint32_t>(ids.size()));
    for (const auto& id : ids) u8(UniqueId(id));
  }
}

ParagraphHead HeadOf(const StatusParagraph& paragraph) {
  return ParagraphHead{paragraph.vin, paragraph.app, paragraph.version,
                       paragraph.want, paragraph.state};
}

}  // namespace

support::Result<StatusParagraph> StatusDb::DecodeParagraph(
    std::span<const std::uint8_t> payload) {
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
  if (version != kParagraphVersion) {
    return support::Corrupted("unknown status paragraph version");
  }
  StatusParagraph paragraph;
  DACM_ASSIGN_OR_RETURN(paragraph.vin, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(paragraph.app, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(paragraph.version, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t want, reader.ReadU8());
  DACM_ASSIGN_OR_RETURN(const std::uint8_t state, reader.ReadU8());
  if (want > static_cast<std::uint8_t>(Want::kDeinstall) ||
      state > static_cast<std::uint8_t>(DbState::kErrorState)) {
    return support::Corrupted("status paragraph enum out of range");
  }
  paragraph.want = static_cast<Want>(want);
  paragraph.state = static_cast<DbState>(state);
  // A plug-in entry is at least a string length, an ECU id and an id count.
  DACM_ASSIGN_OR_RETURN(const std::uint32_t plugin_count,
                        reader.ReadCount(4 + 4 + 1));
  paragraph.plugins.reserve(plugin_count);
  for (std::uint32_t i = 0; i < plugin_count; ++i) {
    StatusParagraph::PluginIds ids;
    DACM_ASSIGN_OR_RETURN(ids.plugin, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(ids.ecu_id, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(const std::uint32_t id_count, reader.ReadCount(1));
    ids.unique_ids.reserve(id_count);
    for (std::uint32_t j = 0; j < id_count; ++j) {
      DACM_ASSIGN_OR_RETURN(const std::uint8_t unique, reader.ReadU8());
      ids.unique_ids.push_back(unique);
    }
    paragraph.plugins.push_back(std::move(ids));
  }
  if (!reader.exhausted()) {
    return support::Corrupted("trailing bytes in status paragraph");
  }
  return paragraph;
}

std::string_view WantName(Want want) {
  switch (want) {
    case Want::kInstall: return "install";
    case Want::kDeinstall: return "deinstall";
  }
  return "?";
}

std::string_view DbStateName(DbState state) {
  switch (state) {
    case DbState::kNotInstalled: return "not-installed";
    case DbState::kHalfInstalled: return "half-installed";
    case DbState::kInstalled: return "installed";
    case DbState::kHalfRemoved: return "half-removed";
    case DbState::kErrorState: return "error";
  }
  return "?";
}

support::Bytes StatusDb::EncodeParagraph(const StatusParagraph& paragraph) {
  support::Bytes out;
  EncodeInto(HeadOf(paragraph),
             std::span<const StatusParagraph::PluginIds>(paragraph.plugins),
             out);
  return out;
}

void StatusDb::EncodeParagraph(const ParagraphHead& head,
                               const BatchManifest* manifest,
                               support::Bytes& out) {
  std::span<const BatchManifest::Plugin> plugins;
  if (manifest != nullptr) plugins = manifest->plugins;
  EncodeInto(head, plugins, out);
}

support::Status StatusDb::Append(const StatusParagraph& paragraph) {
  return writer_.Append(EncodeParagraph(paragraph));
}

support::Status StatusDb::AppendRaw(std::span<const std::uint8_t> payload) {
  return writer_.Append(payload);
}

support::Result<std::vector<StatusParagraph>> StatusDb::Replay(
    std::span<const std::uint8_t> data) {
  DACM_ASSIGN_OR_RETURN(StatusImage image, ReplayImage(data));
  return std::move(image.paragraphs);
}

support::Result<StatusImage> StatusDb::ReplayImage(
    std::span<const std::uint8_t> data) {
  StatusImage image;
  // Ordered map: the fold is last-writer-wins, the iteration order gives
  // recovery its deterministic (vin, app) ordering.
  std::map<std::pair<std::string, std::string>, StatusParagraph> latest;
  auto fold = [&latest, &image](std::span<const std::uint8_t> payload) {
    if (IsCatalogRecord(payload)) {
      return ApplyCatalogRecord(payload, image.catalog);
    }
    auto paragraph = DecodeParagraph(payload);
    DACM_RETURN_IF_ERROR(paragraph.status());
    auto key = std::make_pair(paragraph->vin, paragraph->app);
    if (paragraph->state == DbState::kNotInstalled) {
      latest.erase(key);
    } else {
      latest.insert_or_assign(std::move(key), std::move(*paragraph));
    }
    return support::OkStatus();
  };
  DACM_ASSIGN_OR_RETURN(image.stats, support::ReplayRecords(data, fold));
  image.paragraphs.reserve(latest.size());
  constexpr std::uint64_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
  image.live_bytes =
      kFrameHeaderBytes + EncodeCatalogImage(image.catalog).size();
  for (auto& [key, paragraph] : latest) {
    image.live_bytes +=
        kFrameHeaderBytes +
        EncodedSize(HeadOf(paragraph),
                    std::span<const StatusParagraph::PluginIds>(
                        paragraph.plugins));
    image.paragraphs.push_back(std::move(paragraph));
  }
  return image;
}

}  // namespace dacm::server
