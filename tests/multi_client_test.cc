// The server broadcasts to arbitrarily many listeners; these tests run
// several full MeasuredClients against one server to check population
// effects the single-MC System cannot: snooping between real clients,
// backchannel contention among peers, and per-client independence under
// Pure-Push.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "client/measured_client.h"
#include "oracles.h"
#include "server/broadcast_server.h"
#include "sim/simulator.h"
#include "sim/zipf.h"
#include "workload/access_pattern.h"
#include "workload/noise.h"

namespace bdisk {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using workload::AccessPattern;

struct Fleet {
  sim::Simulator sim;
  std::unique_ptr<BroadcastServer> server;
  std::vector<std::unique_ptr<client::MeasuredClient>> clients;
};

// A fleet of `n` clients over a 50-page flat-disk broadcast.
std::unique_ptr<Fleet> MakeFleet(int n, double pull_bw,
                                 std::uint32_t queue_capacity,
                                 bool use_backchannel) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<broadcast::PageId> schedule;
  for (broadcast::PageId p = 0; p < 50; ++p) schedule.push_back(p);
  fleet->server = std::make_unique<BroadcastServer>(
      &fleet->sim, Share(BroadcastProgram(std::move(schedule), 50)), pull_bw,
      queue_capacity, sim::Rng(1));

  const AccessPattern base = AccessPattern::Zipf(50, 0.95);
  for (int i = 0; i < n; ++i) {
    client::MeasuredClientOptions options;
    options.cache_size = 5;
    options.think_time = 10.0;
    options.use_backchannel = use_backchannel;
    options.retry_interval = use_backchannel ? 100.0 : 0.0;
    sim::Rng pattern_rng(100 + i);
    fleet->clients.push_back(std::make_unique<client::MeasuredClient>(
        &fleet->sim, fleet->server.get(),
        base.WithNoise(i == 0 ? 0.0 : 0.2, pattern_rng), options,
        sim::Rng(200 + i)));
  }
  return fleet;
}

TEST(MultiClientTest, AllClientsProgressUnderPurePush) {
  auto fleet = MakeFleet(4, 0.0, 10, /*use_backchannel=*/false);
  for (auto& mc : fleet->clients) {
    mc->SetRecording(true);
    mc->Start();
  }
  fleet->sim.RunUntil(20000.0);
  for (auto& mc : fleet->clients) {
    EXPECT_GT(mc->TotalAccesses(), 100U);
    EXPECT_GT(mc->response_times().Count(), 0U);
  }
}

TEST(MultiClientTest, PushClientsAreIndependent) {
  // A push-only client's performance must not depend on how many other
  // clients watch the broadcast (the paper's scalability argument for
  // push).
  auto solo = MakeFleet(1, 0.0, 10, false);
  solo->clients[0]->SetRecording(true);
  solo->clients[0]->Start();
  solo->sim.RunUntil(50000.0);
  const double alone = solo->clients[0]->response_times().Mean();

  auto crowd = MakeFleet(8, 0.0, 10, false);
  for (auto& mc : crowd->clients) mc->Start();
  crowd->clients[0]->SetRecording(true);
  crowd->sim.RunUntil(50000.0);
  const double crowded = crowd->clients[0]->response_times().Mean();

  // Client 0 has the same pattern/seed in both fleets; with no
  // backchannel its trajectory is identical.
  EXPECT_DOUBLE_EQ(alone, crowded);
}

TEST(MultiClientTest, SnoopingServesIdenticalInterests) {
  // Clients with overlapping hot sets share pull responses: total pull
  // slots consumed grow sub-linearly in the number of clients.
  auto solo = MakeFleet(1, 0.5, 50, true);
  for (auto& mc : solo->clients) mc->Start();
  solo->sim.RunUntil(20000.0);
  const std::uint64_t solo_pulls = solo->server->PullSlots();

  auto crowd = MakeFleet(6, 0.5, 50, true);
  for (auto& mc : crowd->clients) mc->Start();
  crowd->sim.RunUntil(20000.0);
  const std::uint64_t crowd_pulls = crowd->server->PullSlots();

  EXPECT_LT(crowd_pulls, solo_pulls * 6);
  // And the crowd really did make more requests than one client.
  EXPECT_GT(crowd->server->queue().SubmittedCount(),
            solo->server->queue().SubmittedCount());
}

TEST(MultiClientTest, SharedQueueContentionDropsRequests) {
  // A tiny queue plus many clients: some requests must drop, yet every
  // client still completes accesses via the push safety net.
  auto fleet = MakeFleet(8, 0.2, 1, true);
  for (auto& mc : fleet->clients) {
    mc->SetRecording(true);
    mc->Start();
  }
  fleet->sim.RunUntil(30000.0);
  EXPECT_GT(fleet->server->queue().DroppedCount(), 0U);
  for (auto& mc : fleet->clients) {
    EXPECT_GT(mc->response_times().Count(), 50U);  // Nobody starves.
  }
}

TEST(MultiClientTest, DeterministicAcrossRuns) {
  auto a = MakeFleet(3, 0.5, 10, true);
  for (auto& mc : a->clients) {
    mc->SetRecording(true);
    mc->Start();
  }
  a->sim.RunUntil(10000.0);

  auto b = MakeFleet(3, 0.5, 10, true);
  for (auto& mc : b->clients) {
    mc->SetRecording(true);
    mc->Start();
  }
  b->sim.RunUntil(10000.0);

  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a->clients[i]->response_times().Mean(),
                     b->clients[i]->response_times().Mean());
  }
}

}  // namespace
}  // namespace bdisk
