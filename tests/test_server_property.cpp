// Property tests on the trusted server's bookkeeping invariants:
//
//  * unique-id allocation never collides, whatever the deploy/uninstall
//    churn, and the id space is compact enough for long-lived vehicles;
//  * dependency chains can only be dismantled in reverse installation
//    (topological) order;
//  * restore is idempotent and preserves the recorded contexts exactly;
//  * the InstalledAPP table equals the set of acked deploys at all times.
#include <gtest/gtest.h>

#include <set>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/server.hpp"
#include "test_util.hpp"

namespace dacm::server {
namespace {

struct ServerProperty : ::testing::Test {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  TrustedServer server{network, "srv:443"};
  UserId user = UserId::Invalid();
  /// One scripted auto-acking endpoint, VIN-0 (no real ECU stack — these
  /// tests pin server behaviour only).
  std::unique_ptr<fes::ScriptedFleet> vehicle;

  void SetUp() override {
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server.CreateUser("prop");
    fes::ScriptedFleetOptions options;
    options.vin_prefix = "VIN-";
    vehicle = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                                   options);
    ASSERT_TRUE(vehicle->BindAndConnect(user).ok());
  }

  void Upload(const std::string& name, std::uint32_t ports = 2,
              std::vector<std::string> depends = {}) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.ports_per_plugin = ports;
    params.target_ecu = 1;
    params.depends_on = std::move(depends);
    ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
  }

  void Deploy(const std::string& name) {
    ASSERT_TRUE(server.Deploy(user, "VIN-0", name).ok()) << name;
    simulator.Run();
    ASSERT_EQ(*server.AppState("VIN-0", name), InstallState::kInstalled) << name;
  }

  void Uninstall(const std::string& name) {
    ASSERT_TRUE(server.UninstallApp(user, "VIN-0", name).ok()) << name;
    simulator.Run();
    ASSERT_FALSE(server.AppState("VIN-0", name).ok()) << name;
  }

  /// All unique ids currently recorded for the vehicle, asserting no clash.
  std::set<std::uint8_t> CollectIds() {
    std::set<std::uint8_t> ids;
    const auto record = server.FindVehicle("VIN-0");
    EXPECT_NE(record, nullptr);
    for (const auto& installed : record->installed) {
      for (const auto& plugin : installed.plugins) {
        for (const auto& entry : plugin.pic.entries) {
          EXPECT_TRUE(ids.insert(entry.unique_id).second)
              << "id " << int(entry.unique_id) << " clashes";
        }
      }
    }
    return ids;
  }
};

// --- id allocation under churn ------------------------------------------------------

struct ChurnCase {
  int apps;
  std::uint32_t ports;
};

struct IdChurn : ServerProperty,
                 ::testing::WithParamInterface<ChurnCase> {};

TEST_P(IdChurn, IdsStayUniqueAndCompactUnderChurn) {
  const auto [apps, ports] = GetParam();
  for (int i = 0; i < apps; ++i) {
    Upload("app" + std::to_string(i), ports);
    Deploy("app" + std::to_string(i));
  }
  EXPECT_EQ(CollectIds().size(), static_cast<std::size_t>(apps) * ports);

  // Remove every second app, then add replacements: freed ids must be
  // reused (compactness) and never clash (uniqueness).
  for (int i = 0; i < apps; i += 2) Uninstall("app" + std::to_string(i));
  for (int i = 0; i < apps; i += 2) {
    Upload("new" + std::to_string(i), ports);
    Deploy("new" + std::to_string(i));
  }
  const auto ids = CollectIds();
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(apps) * ports);
  // Compactness: with full reuse the highest id is bounded by the live
  // population (ids are allocated lowest-free-first).
  EXPECT_LT(static_cast<std::size_t>(*ids.rbegin()),
            static_cast<std::size_t>(apps) * ports + ports);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IdChurn,
                         ::testing::Values(ChurnCase{2, 2}, ChurnCase{4, 4},
                                           ChurnCase{8, 2}, ChurnCase{6, 8},
                                           ChurnCase{16, 3}));

// --- dependency order ------------------------------------------------------------------

struct ChainDepth : ServerProperty, ::testing::WithParamInterface<int> {};

TEST_P(ChainDepth, ChainsDismantleOnlyInReverseOrder) {
  const int depth = GetParam();
  Upload("c0");
  Deploy("c0");
  for (int i = 1; i < depth; ++i) {
    Upload("c" + std::to_string(i), 2, {"c" + std::to_string(i - 1)});
    Deploy("c" + std::to_string(i));
  }
  // Every non-leaf uninstall is rejected while its dependent lives.
  for (int i = 0; i < depth - 1; ++i) {
    EXPECT_EQ(server.UninstallApp(user, "VIN-0", "c" + std::to_string(i)).code(),
              support::ErrorCode::kDependencyViolation)
        << "c" << i;
  }
  // Reverse order succeeds all the way down.
  for (int i = depth - 1; i >= 0; --i) Uninstall("c" + std::to_string(i));
  EXPECT_TRUE(server.InstalledApps("VIN-0").empty());
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepth, ::testing::Values(2, 3, 5, 8));

TEST_F(ServerProperty, DiamondDependencyNeedsBothBranchesGone) {
  Upload("base");
  Deploy("base");
  Upload("left", 2, {"base"});
  Upload("right", 2, {"base"});
  Deploy("left");
  Deploy("right");
  EXPECT_FALSE(server.UninstallApp(user, "VIN-0", "base").ok());
  Uninstall("left");
  EXPECT_FALSE(server.UninstallApp(user, "VIN-0", "base").ok());  // right remains
  Uninstall("right");
  EXPECT_TRUE(server.UninstallApp(user, "VIN-0", "base").ok());
}

// --- restore idempotence --------------------------------------------------------------------

struct RestoreCount : ServerProperty, ::testing::WithParamInterface<int> {};

TEST_P(RestoreCount, RestoreIsIdempotentAndContextPreserving) {
  const int apps = GetParam();
  for (int i = 0; i < apps; ++i) {
    Upload("app" + std::to_string(i));
    Deploy("app" + std::to_string(i));
  }
  const auto ids_before = CollectIds();
  const auto installed_before = server.InstalledApps("VIN-0");

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(server.Restore(user, "VIN-0", 1).ok());
    simulator.Run();
    EXPECT_EQ(CollectIds(), ids_before) << "round " << round;
    EXPECT_EQ(server.InstalledApps("VIN-0"), installed_before);
    for (int i = 0; i < apps; ++i) {
      EXPECT_EQ(*server.AppState("VIN-0", "app" + std::to_string(i)),
                InstallState::kInstalled);
    }
  }
  // The deploy and each restore pushed one package per app.
  EXPECT_EQ(vehicle->packages_received(), static_cast<std::uint64_t>(apps) * 4);
}

INSTANTIATE_TEST_SUITE_P(Counts, RestoreCount, ::testing::Values(1, 3, 8));

// --- table consistency ------------------------------------------------------------------------

TEST_F(ServerProperty, InstalledTableMatchesAckedDeploysThroughout) {
  std::set<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "app" + std::to_string(i);
    Upload(name);
    Deploy(name);
    expected.insert(name);
    if (i % 3 == 2) {
      const std::string victim = "app" + std::to_string(i - 1);
      Uninstall(victim);
      expected.erase(victim);
    }
    const auto listed = server.InstalledApps("VIN-0");
    EXPECT_EQ(std::set<std::string>(listed.begin(), listed.end()), expected)
        << "after step " << i;
  }
}

TEST_F(ServerProperty, ConflictIsCheckedAgainstLiveAppsOnly) {
  Upload("peace");
  fes::SyntheticAppParams params;
  params.name = "war";
  params.vehicle_model = "rpi-testbed";
  params.target_ecu = 1;
  params.conflicts_with = {"peace"};
  ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());

  Deploy("peace");
  EXPECT_EQ(server.Deploy(user, "VIN-0", "war").code(),
            support::ErrorCode::kDependencyViolation);
  Uninstall("peace");
  Deploy("war");  // conflict gone with the app
  // And the reverse direction: the live app's conflict list blocks newcomers.
  EXPECT_EQ(server.Deploy(user, "VIN-0", "peace").code(),
            support::ErrorCode::kDependencyViolation);
}

// --- randomized churn fuzz --------------------------------------------------------------------

TEST_F(ServerProperty, RandomDeployUninstallChurnKeepsIdsUniqueAndTableExact) {
  DACM_PROPERTY_RNG(rng);
  std::set<std::string> live;
  int uploaded = 0;
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    if (live.empty() || rng.NextBool(0.6)) {
      const std::string name = "fuzz" + std::to_string(uploaded++);
      Upload(name, /*ports=*/static_cast<std::uint32_t>(rng.NextInRange(1, 4)));
      Deploy(name);
      live.insert(name);
    } else {
      // Uninstall a uniformly random live app (no dependencies here, so
      // any order is legal).
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
      Uninstall(*it);
      live.erase(it);
    }
    // Invariants after every step: recorded ids never clash (CollectIds
    // asserts that) and the installed table is exactly the live set.
    CollectIds();
    const auto record = server.FindVehicle("VIN-0");
    ASSERT_NE(record, nullptr);
    std::set<std::string> installed;
    for (const auto& app : record->installed) installed.insert(app.app_name);
    EXPECT_EQ(installed, live);
  }
}

}  // namespace
}  // namespace dacm::server
