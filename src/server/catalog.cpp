#include "server/catalog.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace dacm::server {
namespace {

constexpr std::uint8_t kImageVersion = 1;

// Minimum encoded size of each repeated element (a string or blob is at
// least its u32 length, a varint one byte): ReadCount rejects an element
// count that cannot fit in the record before anything is reserved.
constexpr std::size_t kMinString = 4;
constexpr std::size_t kMinEcu = 4 + kMinString + 1 + 1 + 8 + 8;
constexpr std::size_t kMinVirtualPort = 1 + kMinString + 1 + 1 + 4 + 4;
// Name, pool index (the inline blob is larger), port count.
constexpr std::size_t kMinPlugin = kMinString + 1 + 1;
constexpr std::size_t kMinPort = 1 + kMinString + 1;
// Model, min platform and three counts.
constexpr std::size_t kMinSwConf = 2 * kMinString + 3;
constexpr std::size_t kMinPlacement = kMinString + 4;
constexpr std::size_t kMinConnection = 5 * kMinString + 3;
// Name, platform version and two counts.
constexpr std::size_t kMinModel = 2 * kMinString + 2;
// Name, version, developer and four counts.
constexpr std::size_t kMinApp = 3 * kMinString + 4;
constexpr std::size_t kMinBinding = 2 * kMinString + 4;

std::uint64_t ContentHash(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

// --- model body --------------------------------------------------------------------

void EncodeModelBody(support::ByteWriter& writer, const VehicleModelConf& conf) {
  writer.WriteString(conf.model);
  writer.WriteVarU32(static_cast<std::uint32_t>(conf.hw.ecus.size()));
  for (const EcuInfo& ecu : conf.hw.ecus) {
    writer.WriteU32(ecu.ecu_id);
    writer.WriteString(ecu.name);
    writer.WriteU8(ecu.has_plugin_swc ? 1 : 0);
    writer.WriteU8(ecu.is_ecm ? 1 : 0);
    writer.WriteU64(ecu.max_plugins);
    writer.WriteU64(ecu.max_binary_size);
  }
  writer.WriteString(conf.sw.platform_version);
  writer.WriteVarU32(static_cast<std::uint32_t>(conf.sw.virtual_ports.size()));
  for (const VirtualPortDesc& vp : conf.sw.virtual_ports) {
    writer.WriteU8(vp.id);
    writer.WriteString(vp.name);
    writer.WriteU8(vp.kind);
    writer.WriteU8(static_cast<std::uint8_t>(vp.flow));
    writer.WriteU32(vp.ecu_id);
    writer.WriteU32(vp.peer_ecu);
  }
}

support::Result<VehicleModelConf> DecodeModelBody(support::ByteReader& reader) {
  VehicleModelConf conf;
  DACM_ASSIGN_OR_RETURN(conf.model, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(const std::uint32_t ecu_count, reader.ReadCount(kMinEcu));
  conf.hw.ecus.reserve(ecu_count);
  for (std::uint32_t i = 0; i < ecu_count; ++i) {
    EcuInfo ecu;
    DACM_ASSIGN_OR_RETURN(ecu.ecu_id, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(ecu.name, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(const std::uint8_t swc, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(const std::uint8_t ecm, reader.ReadU8());
    ecu.has_plugin_swc = swc != 0;
    ecu.is_ecm = ecm != 0;
    DACM_ASSIGN_OR_RETURN(const std::uint64_t max_plugins, reader.ReadU64());
    DACM_ASSIGN_OR_RETURN(const std::uint64_t max_binary, reader.ReadU64());
    ecu.max_plugins = static_cast<std::size_t>(max_plugins);
    ecu.max_binary_size = static_cast<std::size_t>(max_binary);
    conf.hw.ecus.push_back(std::move(ecu));
  }
  DACM_ASSIGN_OR_RETURN(conf.sw.platform_version, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(const std::uint32_t vp_count,
                        reader.ReadCount(kMinVirtualPort));
  conf.sw.virtual_ports.reserve(vp_count);
  for (std::uint32_t i = 0; i < vp_count; ++i) {
    VirtualPortDesc vp;
    DACM_ASSIGN_OR_RETURN(vp.id, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(vp.name, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(vp.kind, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(const std::uint8_t flow, reader.ReadU8());
    if (flow > static_cast<std::uint8_t>(VirtualPortFlow::kBidirectional)) {
      return support::Corrupted("catalog virtual-port flow out of range");
    }
    vp.flow = static_cast<VirtualPortFlow>(flow);
    DACM_ASSIGN_OR_RETURN(vp.ecu_id, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(vp.peer_ecu, reader.ReadU32());
    conf.sw.virtual_ports.push_back(std::move(vp));
  }
  return conf;
}

// --- app body ----------------------------------------------------------------------

// `pool` == nullptr inlines plug-in binaries (incremental kApp record);
// non-null writes a VarU32 pool index instead (kImage encoding).
void EncodeAppBody(support::ByteWriter& writer, const App& app,
                   const std::unordered_map<const PluginDecl*,
                                            std::uint32_t>* pool) {
  writer.WriteString(app.name);
  writer.WriteString(app.version);
  writer.WriteString(app.developer);
  writer.WriteVarU32(static_cast<std::uint32_t>(app.plugins.size()));
  for (const PluginDecl& plugin : app.plugins) {
    writer.WriteString(plugin.name);
    if (pool == nullptr) {
      writer.WriteBlob(plugin.binary);
    } else {
      writer.WriteVarU32(pool->at(&plugin));
    }
    writer.WriteVarU32(static_cast<std::uint32_t>(plugin.ports.size()));
    for (const PluginPortDecl& port : plugin.ports) {
      writer.WriteU8(port.local_index);
      writer.WriteString(port.name);
      writer.WriteU8(static_cast<std::uint8_t>(port.direction));
    }
  }
  writer.WriteVarU32(static_cast<std::uint32_t>(app.confs.size()));
  for (const SwConf& conf : app.confs) {
    writer.WriteString(conf.vehicle_model);
    writer.WriteString(conf.min_platform);
    writer.WriteVarU32(static_cast<std::uint32_t>(conf.placements.size()));
    for (const PlacementDecl& placement : conf.placements) {
      writer.WriteString(placement.plugin);
      writer.WriteU32(placement.ecu_id);
    }
    writer.WriteVarU32(static_cast<std::uint32_t>(conf.connections.size()));
    for (const ConnectionDecl& connection : conf.connections) {
      writer.WriteString(connection.plugin);
      writer.WriteU8(connection.local_port);
      writer.WriteU8(static_cast<std::uint8_t>(connection.target));
      writer.WriteString(connection.virtual_port_name);
      writer.WriteString(connection.peer_plugin);
      writer.WriteU8(connection.peer_port);
      writer.WriteString(connection.endpoint);
      writer.WriteString(connection.message_id);
    }
    writer.WriteVarU32(
        static_cast<std::uint32_t>(conf.required_virtual_ports.size()));
    for (const std::string& vp : conf.required_virtual_ports) {
      writer.WriteString(vp);
    }
  }
  writer.WriteVarU32(static_cast<std::uint32_t>(app.depends_on.size()));
  for (const std::string& dep : app.depends_on) writer.WriteString(dep);
  writer.WriteVarU32(static_cast<std::uint32_t>(app.conflicts_with.size()));
  for (const std::string& conflict : app.conflicts_with) {
    writer.WriteString(conflict);
  }
}

// `pool` == nullptr reads inline binaries; non-null resolves pool indices.
support::Result<App> DecodeAppBody(support::ByteReader& reader,
                                   const std::vector<support::Bytes>* pool) {
  App app;
  DACM_ASSIGN_OR_RETURN(app.name, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(app.version, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(app.developer, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(const std::uint32_t plugin_count,
                        reader.ReadCount(kMinPlugin));
  app.plugins.reserve(plugin_count);
  for (std::uint32_t i = 0; i < plugin_count; ++i) {
    PluginDecl plugin;
    DACM_ASSIGN_OR_RETURN(plugin.name, reader.ReadString());
    if (pool == nullptr) {
      DACM_ASSIGN_OR_RETURN(plugin.binary, reader.ReadBlob());
    } else {
      DACM_ASSIGN_OR_RETURN(const std::uint32_t blob, reader.ReadVarU32());
      if (blob >= pool->size()) {
        return support::Corrupted("catalog blob-pool index out of range");
      }
      plugin.binary = (*pool)[blob];
    }
    DACM_ASSIGN_OR_RETURN(const std::uint32_t port_count,
                          reader.ReadCount(kMinPort));
    plugin.ports.reserve(port_count);
    for (std::uint32_t j = 0; j < port_count; ++j) {
      PluginPortDecl port;
      DACM_ASSIGN_OR_RETURN(port.local_index, reader.ReadU8());
      DACM_ASSIGN_OR_RETURN(port.name, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(const std::uint8_t direction, reader.ReadU8());
      if (direction >
          static_cast<std::uint8_t>(pirte::PluginPortDirection::kProvided)) {
        return support::Corrupted("catalog port direction out of range");
      }
      port.direction = static_cast<pirte::PluginPortDirection>(direction);
      plugin.ports.push_back(std::move(port));
    }
    app.plugins.push_back(std::move(plugin));
  }
  DACM_ASSIGN_OR_RETURN(const std::uint32_t conf_count,
                        reader.ReadCount(kMinSwConf));
  app.confs.reserve(conf_count);
  for (std::uint32_t i = 0; i < conf_count; ++i) {
    SwConf conf;
    DACM_ASSIGN_OR_RETURN(conf.vehicle_model, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(conf.min_platform, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(const std::uint32_t placement_count,
                          reader.ReadCount(kMinPlacement));
    conf.placements.reserve(placement_count);
    for (std::uint32_t j = 0; j < placement_count; ++j) {
      PlacementDecl placement;
      DACM_ASSIGN_OR_RETURN(placement.plugin, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(placement.ecu_id, reader.ReadU32());
      conf.placements.push_back(std::move(placement));
    }
    DACM_ASSIGN_OR_RETURN(const std::uint32_t connection_count,
                          reader.ReadCount(kMinConnection));
    conf.connections.reserve(connection_count);
    for (std::uint32_t j = 0; j < connection_count; ++j) {
      ConnectionDecl connection;
      DACM_ASSIGN_OR_RETURN(connection.plugin, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(connection.local_port, reader.ReadU8());
      DACM_ASSIGN_OR_RETURN(const std::uint8_t target, reader.ReadU8());
      if (target >
          static_cast<std::uint8_t>(ConnectionDecl::Target::kExternalOut)) {
        return support::Corrupted("catalog connection target out of range");
      }
      connection.target = static_cast<ConnectionDecl::Target>(target);
      DACM_ASSIGN_OR_RETURN(connection.virtual_port_name, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(connection.peer_plugin, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(connection.peer_port, reader.ReadU8());
      DACM_ASSIGN_OR_RETURN(connection.endpoint, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(connection.message_id, reader.ReadString());
      conf.connections.push_back(std::move(connection));
    }
    DACM_ASSIGN_OR_RETURN(const std::uint32_t required_count,
                          reader.ReadCount(kMinString));
    conf.required_virtual_ports.reserve(required_count);
    for (std::uint32_t j = 0; j < required_count; ++j) {
      DACM_ASSIGN_OR_RETURN(std::string vp, reader.ReadString());
      conf.required_virtual_ports.push_back(std::move(vp));
    }
    app.confs.push_back(std::move(conf));
  }
  DACM_ASSIGN_OR_RETURN(const std::uint32_t dep_count, reader.ReadCount(kMinString));
  app.depends_on.reserve(dep_count);
  for (std::uint32_t i = 0; i < dep_count; ++i) {
    DACM_ASSIGN_OR_RETURN(std::string dep, reader.ReadString());
    app.depends_on.push_back(std::move(dep));
  }
  DACM_ASSIGN_OR_RETURN(const std::uint32_t conflict_count,
                        reader.ReadCount(kMinString));
  app.conflicts_with.reserve(conflict_count);
  for (std::uint32_t i = 0; i < conflict_count; ++i) {
    DACM_ASSIGN_OR_RETURN(std::string conflict, reader.ReadString());
    app.conflicts_with.push_back(std::move(conflict));
  }
  return app;
}

// --- image-level upserts -----------------------------------------------------------

support::Status UpsertUser(CatalogImage& image, std::uint32_t index,
                           std::string name) {
  if (index < image.users.size()) {
    if (image.users[index].name != name) {
      return support::Corrupted("catalog user index re-used with new name");
    }
    return support::OkStatus();
  }
  if (index != image.users.size()) {
    return support::Corrupted("catalog user index out of sequence");
  }
  User user;
  user.name = std::move(name);
  image.users.push_back(std::move(user));
  return support::OkStatus();
}

void UpsertModel(CatalogImage& image, VehicleModelConf conf) {
  for (VehicleModelConf& existing : image.models) {
    if (existing.model == conf.model) {
      existing = std::move(conf);
      return;
    }
  }
  image.models.push_back(std::move(conf));
}

void UpsertApp(CatalogImage& image, App app) {
  for (App& existing : image.apps) {
    if (existing.name == app.name) {
      existing = std::move(app);
      return;
    }
  }
  image.apps.push_back(std::move(app));
}

void UpsertBinding(CatalogImage& image, CatalogBinding binding) {
  for (CatalogBinding& existing : image.bindings) {
    if (existing.vin == binding.vin) {
      existing = std::move(binding);
      return;
    }
  }
  image.bindings.push_back(std::move(binding));
}

}  // namespace

bool IsCatalogRecord(std::span<const std::uint8_t> payload) {
  return !payload.empty() &&
         payload[0] >= static_cast<std::uint8_t>(CatalogRecordKind::kUser) &&
         payload[0] <= static_cast<std::uint8_t>(CatalogRecordKind::kImage);
}

support::Bytes EncodeCatalogUser(std::uint32_t index, const std::string& name) {
  support::ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(CatalogRecordKind::kUser));
  writer.WriteU32(index);
  writer.WriteString(name);
  return std::move(writer).Take();
}

support::Bytes EncodeCatalogModel(const VehicleModelConf& conf) {
  support::ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(CatalogRecordKind::kModel));
  EncodeModelBody(writer, conf);
  return std::move(writer).Take();
}

support::Bytes EncodeCatalogApp(const App& app) {
  support::ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(CatalogRecordKind::kApp));
  EncodeAppBody(writer, app, /*pool=*/nullptr);
  return std::move(writer).Take();
}

support::Bytes EncodeCatalogBinding(const std::string& vin,
                                    const std::string& model,
                                    std::uint32_t owner) {
  support::ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(CatalogRecordKind::kBinding));
  writer.WriteString(vin);
  writer.WriteString(model);
  writer.WriteU32(owner);
  return std::move(writer).Take();
}

support::Bytes EncodeCatalogImage(const CatalogImage& image) {
  // Dedup plug-in binaries into a content-hashed pool: hash buckets hold
  // pool indices, byte-equality breaks (theoretical) collisions.
  std::vector<std::span<const std::uint8_t>> pool;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  std::unordered_map<const PluginDecl*, std::uint32_t> refs;
  for (const App& app : image.apps) {
    for (const PluginDecl& plugin : app.plugins) {
      const std::uint64_t hash = ContentHash(plugin.binary);
      std::vector<std::uint32_t>& bucket = buckets[hash];
      std::uint32_t index = 0;
      bool found = false;
      for (const std::uint32_t candidate : bucket) {
        const auto& existing = pool[candidate];
        if (existing.size() == plugin.binary.size() &&
            std::equal(existing.begin(), existing.end(),
                       plugin.binary.begin())) {
          index = candidate;
          found = true;
          break;
        }
      }
      if (!found) {
        index = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back(plugin.binary);
        bucket.push_back(index);
      }
      refs[&plugin] = index;
    }
  }

  support::ByteWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(CatalogRecordKind::kImage));
  writer.WriteU8(kImageVersion);
  writer.WriteVarU32(static_cast<std::uint32_t>(pool.size()));
  for (const auto& blob : pool) writer.WriteBlob(blob);
  writer.WriteVarU32(static_cast<std::uint32_t>(image.users.size()));
  for (const User& user : image.users) writer.WriteString(user.name);
  writer.WriteVarU32(static_cast<std::uint32_t>(image.models.size()));
  for (const VehicleModelConf& conf : image.models) {
    EncodeModelBody(writer, conf);
  }
  writer.WriteVarU32(static_cast<std::uint32_t>(image.apps.size()));
  for (const App& app : image.apps) EncodeAppBody(writer, app, &refs);
  writer.WriteVarU32(static_cast<std::uint32_t>(image.bindings.size()));
  for (const CatalogBinding& binding : image.bindings) {
    writer.WriteString(binding.vin);
    writer.WriteString(binding.model);
    writer.WriteU32(binding.owner);
  }
  return std::move(writer).Take();
}

support::Status ApplyCatalogRecord(std::span<const std::uint8_t> payload,
                                   CatalogImage& image) {
  if (!IsCatalogRecord(payload)) {
    return support::InvalidArgument("not a catalog record");
  }
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(const std::uint8_t kind, reader.ReadU8());
  switch (static_cast<CatalogRecordKind>(kind)) {
    case CatalogRecordKind::kUser: {
      DACM_ASSIGN_OR_RETURN(const std::uint32_t index, reader.ReadU32());
      DACM_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
      if (!reader.exhausted()) {
        return support::Corrupted("trailing bytes in catalog user record");
      }
      return UpsertUser(image, index, std::move(name));
    }
    case CatalogRecordKind::kModel: {
      DACM_ASSIGN_OR_RETURN(VehicleModelConf conf, DecodeModelBody(reader));
      if (!reader.exhausted()) {
        return support::Corrupted("trailing bytes in catalog model record");
      }
      UpsertModel(image, std::move(conf));
      return support::OkStatus();
    }
    case CatalogRecordKind::kApp: {
      DACM_ASSIGN_OR_RETURN(App app, DecodeAppBody(reader, /*pool=*/nullptr));
      if (!reader.exhausted()) {
        return support::Corrupted("trailing bytes in catalog app record");
      }
      UpsertApp(image, std::move(app));
      return support::OkStatus();
    }
    case CatalogRecordKind::kBinding: {
      CatalogBinding binding;
      DACM_ASSIGN_OR_RETURN(binding.vin, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(binding.model, reader.ReadString());
      DACM_ASSIGN_OR_RETURN(binding.owner, reader.ReadU32());
      if (!reader.exhausted()) {
        return support::Corrupted("trailing bytes in catalog binding record");
      }
      UpsertBinding(image, std::move(binding));
      return support::OkStatus();
    }
    case CatalogRecordKind::kImage: {
      DACM_ASSIGN_OR_RETURN(const std::uint8_t version, reader.ReadU8());
      if (version != kImageVersion) {
        return support::Corrupted("unknown catalog image version");
      }
      CatalogImage fresh;
      DACM_ASSIGN_OR_RETURN(const std::uint32_t pool_count,
                            reader.ReadCount(kMinString));
      std::vector<support::Bytes> pool;
      pool.reserve(pool_count);
      for (std::uint32_t i = 0; i < pool_count; ++i) {
        DACM_ASSIGN_OR_RETURN(support::Bytes blob, reader.ReadBlob());
        pool.push_back(std::move(blob));
      }
      DACM_ASSIGN_OR_RETURN(const std::uint32_t user_count,
                            reader.ReadCount(kMinString));
      fresh.users.reserve(user_count);
      for (std::uint32_t i = 0; i < user_count; ++i) {
        User user;
        DACM_ASSIGN_OR_RETURN(user.name, reader.ReadString());
        fresh.users.push_back(std::move(user));
      }
      DACM_ASSIGN_OR_RETURN(const std::uint32_t model_count,
                            reader.ReadCount(kMinModel));
      fresh.models.reserve(model_count);
      for (std::uint32_t i = 0; i < model_count; ++i) {
        DACM_ASSIGN_OR_RETURN(VehicleModelConf conf, DecodeModelBody(reader));
        fresh.models.push_back(std::move(conf));
      }
      DACM_ASSIGN_OR_RETURN(const std::uint32_t app_count,
                            reader.ReadCount(kMinApp));
      fresh.apps.reserve(app_count);
      for (std::uint32_t i = 0; i < app_count; ++i) {
        DACM_ASSIGN_OR_RETURN(App app, DecodeAppBody(reader, &pool));
        fresh.apps.push_back(std::move(app));
      }
      DACM_ASSIGN_OR_RETURN(const std::uint32_t binding_count,
                            reader.ReadCount(kMinBinding));
      fresh.bindings.reserve(binding_count);
      for (std::uint32_t i = 0; i < binding_count; ++i) {
        CatalogBinding binding;
        DACM_ASSIGN_OR_RETURN(binding.vin, reader.ReadString());
        DACM_ASSIGN_OR_RETURN(binding.model, reader.ReadString());
        DACM_ASSIGN_OR_RETURN(binding.owner, reader.ReadU32());
        fresh.bindings.push_back(std::move(binding));
      }
      if (!reader.exhausted()) {
        return support::Corrupted("trailing bytes in catalog image record");
      }
      image = std::move(fresh);
      return support::OkStatus();
    }
  }
  return support::Corrupted("unknown catalog record kind");
}

}  // namespace dacm::server
