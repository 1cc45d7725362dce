#include "server/package_cache.hpp"

#include "pirte/package.hpp"
#include "pirte/protocol.hpp"

namespace dacm::server {
namespace {

/// VIN-less kUninstallBatch envelope for the manifest's plug-ins.  The
/// downstream receive path (ECM and scripted endpoints alike) routes on
/// the socket, never on the envelope VIN, so one wire image serves the
/// whole fleet.
support::SharedBytes BuildUninstallWire(
    const std::string& app_name,
    const std::vector<BatchManifest::Plugin>& plugins) {
  std::vector<pirte::UninstallBatchEntry> entries;
  entries.reserve(plugins.size());
  for (const BatchManifest::Plugin& plugin : plugins) {
    entries.push_back({plugin.name, plugin.ecu_id});
  }
  pirte::PirteMessage batch;
  batch.type = pirte::MessageType::kUninstallBatch;
  batch.plugin_name = app_name;
  batch.payload = pirte::SerializeUninstallBatch(entries);
  return support::SharedBytes(pirte::SerializeEnveloped("", batch.View()));
}

/// One sized pass: envelope, kInstallBatch framing and every package go
/// straight into the payload's single wire buffer; the per-plug-in package
/// views point into it.
std::shared_ptr<const BatchPayload> BuildPayload(
    const App& app, const std::vector<GeneratedPackage>& generated) {
  std::vector<pirte::InstallBatchPackage> entries;
  entries.reserve(generated.size());
  for (const GeneratedPackage& gen : generated) {
    entries.push_back({gen.plugin, gen.ecu_id, &gen.package});
  }
  auto payload = std::make_shared<BatchPayload>();
  payload->packages.resize(generated.size());
  payload->install_wire = support::SharedBytes(pirte::SerializeEnvelopedInstallBatch(
      "", app.name, entries, payload->packages));
  return payload;
}

std::shared_ptr<const BatchManifest> BuildManifest(
    const App& app, const std::vector<GeneratedPackage>& generated) {
  auto manifest = std::make_shared<BatchManifest>();
  manifest->app_name = app.name;
  manifest->version = app.version;
  manifest->plugins.reserve(generated.size());
  for (const GeneratedPackage& gen : generated) {
    manifest->plugins.push_back({gen.plugin, gen.ecu_id, gen.package.pic});
  }
  manifest->uninstall_wire = BuildUninstallWire(app.name, manifest->plugins);
  return manifest;
}

support::Result<std::vector<GeneratedPackage>> Generate(
    const App& app, const SwConf& conf, const SystemSwConf& system_sw,
    const IdLayout& layout) {
  UsedIdMap used = ToUsedIdMap(layout);
  return GeneratePackages(app, conf, system_sw, used);
}

}  // namespace

std::size_t PackageCache::KeyHash::operator()(const KeyView& key) const {
  const auto& [model, app, version] = key;
  const std::hash<std::string_view> hash;
  std::size_t h = hash(model);
  for (std::string_view part : {app, version}) {
    h ^= hash(part) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

support::Result<CachedBatch> PackageCache::Acquire(
    const std::string& model, const App& app, const SwConf& conf,
    const SystemSwConf& system_sw, const IdLayout& layout) {
  auto entry = entries_.find(KeyView{model, app.name, app.version});
  if (entry == entries_.end()) {
    entry = entries_.try_emplace(Key{model, app.name, app.version}).first;
  }
  for (Variant& variant : entry->second.variants) {
    if (variant.layout != layout) continue;
    if (auto payload = variant.payload.lock()) {
      ++stats_.hits;
      return CachedBatch{variant.manifest, std::move(payload)};
    }
    // Payload expired (every in-flight row converged and no running
    // campaign pins it).  Generation is
    // deterministic in (app, confs, layout), so re-running it against the
    // matching layout reproduces the pinned manifest's bytes exactly.
    DACM_ASSIGN_OR_RETURN(std::vector<GeneratedPackage> generated,
                          Generate(app, conf, system_sw, layout));
    std::shared_ptr<const BatchPayload> payload = BuildPayload(app, generated);
    variant.payload = payload;
    ++stats_.regenerations;
    return CachedBatch{variant.manifest, std::move(payload), /*built=*/true};
  }
  DACM_ASSIGN_OR_RETURN(std::vector<GeneratedPackage> generated,
                        Generate(app, conf, system_sw, layout));
  std::shared_ptr<const BatchPayload> payload = BuildPayload(app, generated);
  std::shared_ptr<const BatchManifest> manifest = BuildManifest(app, generated);
  entry->second.variants.push_back({layout, manifest, payload});
  ++stats_.variants;
  return CachedBatch{std::move(manifest), std::move(payload), /*built=*/true};
}

std::size_t PackageCache::entries() const {
  return entries_.size();
}

std::size_t PackageCache::live_payloads() const {
  std::size_t live = 0;
  for (const auto& [key, entry] : entries_) {
    for (const Variant& variant : entry.variants) {
      if (!variant.payload.expired()) ++live;
    }
  }
  return live;
}

std::shared_ptr<const BatchManifest> PackageCache::RecoveredManifest(
    const std::string& app_name, const std::string& version,
    std::span<const StatusParagraph::PluginIds> plugins) {
  auto manifest = std::make_shared<BatchManifest>();
  manifest->app_name = app_name;
  manifest->version = version;
  manifest->plugins.reserve(plugins.size());
  for (const StatusParagraph::PluginIds& ids : plugins) {
    BatchManifest::Plugin plugin;
    plugin.name = ids.plugin;
    plugin.ecu_id = ids.ecu_id;
    plugin.pic.entries.reserve(ids.unique_ids.size());
    for (std::uint8_t unique_id : ids.unique_ids) {
      pirte::PicEntry pic_entry;
      pic_entry.unique_id = unique_id;
      plugin.pic.entries.push_back(std::move(pic_entry));
    }
    manifest->plugins.push_back(std::move(plugin));
  }
  manifest->uninstall_wire = BuildUninstallWire(app_name, manifest->plugins);
  return manifest;
}

}  // namespace dacm::server
