// The transport seam (transport/transport.h) and the live UNIX-datagram
// backend: SimTransport's submit-forwarding identity, the loopback
// HELLO/WELCOME/PULL/SLOT protocol, heartbeat eviction, crash/reconnect
// epoch accounting, dead-peer drop counting, the BYE -> STATS
// reconciliation handshake, the max_peers admission cap, socket-path
// validation, and the per-peer sender sockets: a duplicate HELLO keeps
// its sender, a stalled reader's budget is its own, the reply socket
// trusts only its sender, and no sender outlives its peer. Wall-clock
// deadlines are driven with explicit timestamps — no sleeping for
// eviction tests.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "server/broadcast_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/datagram_client.h"
#include "transport/datagram_transport.h"
#include "transport/transport.h"

namespace bdisk::transport {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using server::SubmitResult;

TEST(SimTransportTest, ForwardsExactlyLikeADirectSubmit) {
  // Two identical kernels: one submits through the seam, one calls
  // SubmitRequest directly. Every queue verdict — accept, coalesce,
  // capacity drop — must match, submission for submission.
  sim::Simulator sim_a;
  BroadcastServer server_a(&sim_a, BroadcastProgram({}, 8), 1.0, 2,
                           sim::Rng(1));
  SimTransport seam(&server_a);

  sim::Simulator sim_b;
  BroadcastServer server_b(&sim_b, BroadcastProgram({}, 8), 1.0, 2,
                           sim::Rng(1));

  const PageId pages[] = {3, 3, 4, 5, 6};  // Dup then overflow.
  for (const PageId page : pages) {
    EXPECT_EQ(seam.SubmitPull(page, 0), server_b.SubmitRequest(page, 0));
  }
  EXPECT_EQ(server_a.queue().SubmittedCount(), server_b.queue().SubmittedCount());
  EXPECT_EQ(server_a.queue().AcceptedCount(), server_b.queue().AcceptedCount());
  EXPECT_EQ(server_a.queue().CoalescedCount(), server_b.queue().CoalescedCount());
  EXPECT_EQ(server_a.queue().DroppedCount(), server_b.queue().DroppedCount());
  EXPECT_EQ(seam.Describe(), "sim");
}

/// Drives the server transport's Poll loop from a second thread while a
/// client call (Connect / Goodbye) blocks in its bounded waits. Joined
/// before any assertion touches the transport, so there is no concurrent
/// access from the test body.
class ServerPump {
 public:
  explicit ServerPump(DatagramServerTransport* transport, double wall = 0.0)
      : transport_(transport), wall_(wall), thread_([this] {
          while (!done_.load(std::memory_order_relaxed)) {
            transport_->WaitReadable(5);
            transport_->Poll(wall_);
          }
        }) {}
  ~ServerPump() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      done_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
  }

 private:
  DatagramServerTransport* transport_;
  double wall_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

sockaddr_un PathAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// A reply socket driven by hand, for what DatagramClientChannel keeps to
/// itself: its fd, and a second HELLO from an already WELCOMEd socket.
class RawSocket {
 public:
  explicit RawSocket(const std::string& path)
      : path_(path), fd_(::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0)) {
    const sockaddr_un addr = PathAddr(path);
    bound_ = fd_ >= 0 && ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  bool bound() const { return bound_; }

  /// True when the kernel took the whole datagram; errno says why not.
  bool SendTo(const std::string& path, const std::string& text) const {
    const sockaddr_un addr = PathAddr(path);
    return ::sendto(fd_, text.data(), text.size(), MSG_DONTWAIT,
                    reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == static_cast<ssize_t>(text.size());
  }

  /// Waits up to `timeout_ms` for one datagram and parses it; its source
  /// address lands in `from`.
  bool Receive(int timeout_ms, wire::Message* msg, sockaddr_un* from,
               socklen_t* from_len) const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char buf[512];
    *from_len = sizeof(*from);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), MSG_DONTWAIT,
                                 reinterpret_cast<sockaddr*>(from), from_len);
    return n > 0 &&
           wire::ParseMessage(
               std::string_view(buf, static_cast<std::size_t>(n)), msg,
               nullptr);
  }

  bool ConnectTo(const sockaddr_un& addr, socklen_t len) const {
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0;
  }

 private:
  std::string path_;
  int fd_;
  bool bound_ = false;
};

/// How many slot datagrams a fresh autobound sender can queue on a reply
/// socket connect()ed back to it before the kernel refuses: its send
/// budget, which no queue limit touches.
std::uint64_t ConnectedSendBudget(const std::string& reply_path) {
  RawSocket reply(reply_path);
  const int sender = ::socket(AF_UNIX, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  sockaddr_un name{};
  name.sun_family = AF_UNIX;
  const sockaddr_un to = PathAddr(reply_path);
  bool ready = reply.bound() && sender >= 0 &&
               ::bind(sender, reinterpret_cast<const sockaddr*>(&name),
                      sizeof(sa_family_t)) == 0 &&  // Autobind.
               ::connect(sender, reinterpret_cast<const sockaddr*>(&to),
                         sizeof(to)) == 0;
  socklen_t name_len = sizeof(name);
  ready = ready &&
          ::getsockname(sender, reinterpret_cast<sockaddr*>(&name),
                        &name_len) == 0 &&
          reply.ConnectTo(name, name_len);
  std::string slot;
  wire::FormatSlot(1000000, 1, server::SlotKind::kPush, 1000000.0, &slot);
  std::uint64_t budget = 0;
  while (ready && budget < 100000 &&
         ::send(sender, slot.data(), slot.size(), MSG_DONTWAIT) > 0) {
    ++budget;
  }
  if (sender >= 0) ::close(sender);
  return budget;
}

std::size_t OpenFdCount() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

class DatagramTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/bdisk_transport_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    ASSERT_NE(made, nullptr);
    dir_ = made;
    server_options_.socket_path = dir_ + "/serve.sock";
    server_options_.db_size = 8;
    server_options_.cycle_len = 16;
    server_options_.slot_us = 1000;
  }

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  DatagramClientOptions ClientOptions(const std::string& id) const {
    DatagramClientOptions options;
    options.server_path = server_options_.socket_path;
    options.client_id = id;
    options.socket_dir = dir_;
    options.backoff = fault::BackoffPolicy{0.05, 2.0, 0.5, 0.0};
    return options;
  }

  /// Connect with the server pumped at wall time `wall`.
  bool PumpedConnect(DatagramServerTransport* transport,
                     DatagramClientChannel* client,
                     const DatagramClientOptions& options, sim::Rng* rng,
                     double wall = 0.0) {
    ServerPump pump(transport, wall);
    std::string error;
    const bool ok = client->Connect(options, rng, &error);
    pump.Stop();
    EXPECT_TRUE(ok || !error.empty());
    return ok;
  }

  std::string dir_;
  DatagramServerOptions server_options_;
};

TEST_F(DatagramTransportTest, BindRejectsOversizedSocketPath) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  DatagramServerOptions options = server_options_;
  options.socket_path = dir_ + "/" + std::string(200, 'x') + ".sock";
  std::string error;
  EXPECT_FALSE(transport.Bind(options, &server, &error));
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
}

TEST_F(DatagramTransportTest, ConnectRejectsBadClientIdUpFront) {
  DatagramClientChannel client;
  sim::Rng rng(3);
  std::string error;
  EXPECT_FALSE(client.Connect(ClientOptions("has space"), &rng, &error));
  EXPECT_NE(error.find("client id"), std::string::npos) << error;
}

TEST_F(DatagramTransportTest, LoopbackHandshakePullAndSlotFanOut) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  EXPECT_EQ(transport.Describe(), "unix:" + server_options_.socket_path);

  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));
  EXPECT_EQ(transport.PeerCount(), 1U);
  EXPECT_EQ(transport.counters().hellos, 1U);
  EXPECT_EQ(client.welcome().db_size, 8U);
  EXPECT_EQ(client.welcome().cycle_len, 16U);
  EXPECT_EQ(client.welcome().slot_us, 1000U);

  // A PULL enters the very queue the MUX serves, under the peer's own
  // trace identity (>= kFirstPeerTraceClient, clear of the MC/VC ids).
  ASSERT_TRUE(client.SendPull(5));
  EXPECT_GE(transport.Poll(1.0), 1);
  EXPECT_EQ(transport.counters().pulls_rx, 1U);
  EXPECT_EQ(server.queue().SubmittedCount(), 1U);
  EXPECT_EQ(server.queue().AcceptedCount(), 1U);

  // One delivered slot fans out as one datagram to the peer.
  transport.OnBroadcast(5, server::SlotKind::kPull, 7.0);
  EXPECT_EQ(transport.counters().slots_tx, 1U);
  std::vector<wire::Message> messages;
  EXPECT_GE(client.PollMessages(500, &messages), 1);
  ASSERT_EQ(messages.size(), 1U);
  EXPECT_EQ(messages[0].type, wire::MsgType::kSlot);
  EXPECT_EQ(messages[0].page, 5U);
  EXPECT_EQ(messages[0].kind, server::SlotKind::kPull);
  EXPECT_EQ(messages[0].sim_time, 7.0);
  EXPECT_EQ(client.counters().slots_rx_epoch, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, HeartbeatDeadlineEvictsSilentPeers) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  server_options_.heartbeat_deadline = 5.0;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  DatagramClientChannel client;
  sim::Rng rng(3);
  // The pump stamps the HELLO at wall 0.0.
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));

  // Within the deadline: nothing to evict.
  EXPECT_EQ(transport.EvictDeadPeers(4.0), 0);
  // A PING refreshes the peer's deadline...
  client.SendPing();
  EXPECT_GE(transport.Poll(3.0), 1);
  EXPECT_EQ(transport.counters().pings_rx, 1U);
  EXPECT_EQ(transport.EvictDeadPeers(7.0), 0);
  // ...but silence past the deadline forgets it, with a farewell FIN.
  EXPECT_EQ(transport.EvictDeadPeers(8.5), 1);
  EXPECT_EQ(transport.PeerCount(), 0U);
  EXPECT_EQ(transport.counters().evictions, 1U);
  std::vector<wire::Message> messages;
  client.PollMessages(500, &messages);
  ASSERT_FALSE(messages.empty());
  EXPECT_EQ(messages.back().type, wire::MsgType::kFin);
  EXPECT_EQ(messages.back().reason, "evicted");
  EXPECT_FALSE(client.Connected());  // FIN closes the channel.

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, CrashReconnectKeepsCountersAndResetsEpoch) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));
  const std::string first_epoch_path = client.epoch_path();

  transport.OnBroadcast(1, server::SlotKind::kPush, 1.0);
  EXPECT_EQ(transport.FindPeerStats("mc")->slots_tx_epoch, 1U);

  // Crash: the epoch socket dies with the process. Slot sends now fail
  // fast and are counted as dead-peer drops — but the peer is NOT
  // evicted, so its identity and cumulative counters survive the restart.
  client.Crash();
  transport.OnBroadcast(2, server::SlotKind::kPush, 2.0);
  transport.OnBroadcast(3, server::SlotKind::kPush, 3.0);
  EXPECT_EQ(transport.counters().drop_dead_peer, 2U);
  EXPECT_EQ(transport.PeerCount(), 1U);

  // Reconnect: a fresh epoch path, a duplicate HELLO, and both sides
  // zero their epoch slot tallies (the dead epoch's count died with the
  // crashed client, so the server forgets it too).
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));
  EXPECT_NE(client.epoch_path(), first_epoch_path);
  EXPECT_EQ(client.counters().reconnects, 1U);
  EXPECT_EQ(transport.counters().hellos, 2U);
  EXPECT_EQ(transport.counters().reconnects, 1U);
  EXPECT_EQ(transport.PeerCount(), 1U);
  EXPECT_EQ(transport.FindPeerStats("mc")->slots_tx_epoch, 0U);

  transport.OnBroadcast(4, server::SlotKind::kPush, 4.0);
  std::vector<wire::Message> messages;
  EXPECT_GE(client.PollMessages(500, &messages), 1);
  EXPECT_EQ(client.counters().slots_rx_epoch, 1U);
  EXPECT_EQ(transport.FindPeerStats("mc")->slots_tx_epoch, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, ByeReturnsStatsThatReconcileExactly) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));

  ASSERT_TRUE(client.SendPull(1));
  ASSERT_TRUE(client.SendPull(2));
  EXPECT_GE(transport.Poll(1.0), 2);
  transport.OnBroadcast(1, server::SlotKind::kPull, 1.0);
  transport.OnBroadcast(2, server::SlotKind::kPull, 2.0);
  transport.OnBroadcast(3, server::SlotKind::kPush, 3.0);
  EXPECT_GE(client.PollMessages(500, nullptr), 3);

  // The goodbye handshake: BYE after every prior PULL, STATS after every
  // prior slot (per-pair FIFO), so both tallies reconcile with ==.
  wire::PeerStats stats;
  ServerPump pump(&transport, 4.0);
  const bool got_stats = client.Goodbye(&stats, 2000);
  pump.Stop();
  ASSERT_TRUE(got_stats);
  EXPECT_EQ(stats.pulls_rx, client.counters().pulls_sent);
  EXPECT_EQ(stats.slots_tx_epoch, client.counters().slots_rx_epoch);
  EXPECT_EQ(stats.pulls_rx, 2U);
  EXPECT_EQ(stats.slots_tx_epoch, 3U);
  EXPECT_EQ(stats.drop_backpressure, 0U);
  EXPECT_EQ(stats.drop_dead_peer, 0U);
  EXPECT_EQ(transport.PeerCount(), 0U);
  EXPECT_EQ(transport.counters().byes_rx, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, MaxPeersCapRefusesExtraHellosWithFinFull) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  server_options_.max_peers = 1;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  DatagramClientChannel first;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &first, ClientOptions("a"), &rng));

  // The second peer is refused: FIN "full" aborts its handshake early
  // (Connect notices the closed channel, no retry storm).
  DatagramClientChannel second;
  EXPECT_FALSE(PumpedConnect(&transport, &second, ClientOptions("b"), &rng));
  EXPECT_EQ(transport.PeerCount(), 1U);
  EXPECT_GE(transport.counters().peers_rejected, 1U);
  EXPECT_GE(second.counters().fins_rx, 1U);

  // A known peer's duplicate HELLO is a reconnect, never a rejection —
  // the cap counts identities, not datagrams.
  DatagramClientChannel again;
  EXPECT_TRUE(PumpedConnect(&transport, &again, ClientOptions("a"), &rng));
  EXPECT_EQ(transport.PeerCount(), 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, ShutdownSendsFinAndUnlinksTheSocket) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));

  transport.Shutdown("drain");
  transport.Shutdown("drain");  // Idempotent.
  EXPECT_EQ(transport.PeerCount(), 0U);
  EXPECT_FALSE(std::filesystem::exists(server_options_.socket_path));

  std::vector<wire::Message> messages;
  client.PollMessages(500, &messages);
  ASSERT_FALSE(messages.empty());
  EXPECT_EQ(messages.back().type, wire::MsgType::kFin);
  EXPECT_EQ(messages.back().reason, "drain");
  EXPECT_FALSE(client.Connected());
}

TEST_F(DatagramTransportTest, CounterSamplesMirrorSnapshotKeys) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  std::vector<obs::CounterSample> samples;
  transport.AppendCounterSamples(&samples);
  ASSERT_FALSE(samples.empty());

  obs::MetricsRegistry registry;
  transport.SnapshotMetrics(&registry);
  // Every probe sample name is a registry counter key — the contract that
  // lets bdisk_top --check --snapshot reconcile serve-mode streams.
  for (const obs::CounterSample& sample : samples) {
    EXPECT_EQ(registry.counters().count(sample.name), 1U) << sample.name;
  }

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, DuplicateHelloFromALiveSocketKeepsItsSender) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  // The handshake a channel runs: HELLO, then connect() to the WELCOME's
  // source.
  RawSocket raw(dir_ + "/raw.1");
  ASSERT_TRUE(raw.bound());
  ASSERT_TRUE(raw.SendTo(server_options_.socket_path, "bdw1 HELLO raw"));
  EXPECT_EQ(transport.Poll(0.0), 1);
  wire::Message msg;
  sockaddr_un sender{};
  socklen_t sender_len = 0;
  ASSERT_TRUE(raw.Receive(500, &msg, &sender, &sender_len));
  ASSERT_EQ(msg.type, wire::MsgType::kWelcome);
  ASSERT_TRUE(raw.ConnectTo(sender, sender_len));

  // A second HELLO from the same live socket re-aims the same sender, so
  // the connected socket still hears the WELCOME and the next SLOT.
  ASSERT_TRUE(raw.SendTo(server_options_.socket_path, "bdw1 HELLO raw"));
  EXPECT_EQ(transport.Poll(1.0), 1);
  EXPECT_EQ(transport.counters().reconnects, 1U);
  sockaddr_un from{};
  socklen_t from_len = 0;
  ASSERT_TRUE(raw.Receive(500, &msg, &from, &from_len));
  EXPECT_EQ(msg.type, wire::MsgType::kWelcome);
  transport.OnBroadcast(3, server::SlotKind::kPush, 1.0);
  ASSERT_TRUE(raw.Receive(500, &msg, &from, &from_len));
  EXPECT_EQ(msg.type, wire::MsgType::kSlot);
  EXPECT_EQ(msg.page, 3U);
  EXPECT_EQ(transport.counters().drop_dead_peer, 0U);
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, StalledReaderAbsorbsPastQlenAndStarvesNoOne) {
  std::ifstream qlen_file("/proc/sys/net/unix/max_dgram_qlen");
  std::uint64_t qlen = 0;
  ASSERT_TRUE(qlen_file >> qlen);

  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  DatagramClientChannel stalled;
  DatagramClientChannel reader;
  sim::Rng rng(3);
  ASSERT_TRUE(
      PumpedConnect(&transport, &stalled, ClientOptions("stalled"), &rng));
  ASSERT_TRUE(
      PumpedConnect(&transport, &reader, ClientOptions("reader"), &rng));

  // `stalled` never reads. Its reply socket is connected to its sender,
  // which exempts that sender from max_dgram_qlen: it fills its own send
  // budget before the first drop. `reader` drains every 16 slots and, with
  // a budget of its own, loses nothing then or afterwards (a budget shared
  // with `stalled` would have no room for its batch).
  const wire::PeerStats* stalled_stats = transport.FindPeerStats("stalled");
  std::uint64_t slots = 0;
  std::uint64_t absorbed = 0;
  while (slots < 100000 && (absorbed == 0 || slots < absorbed + 100)) {
    transport.OnBroadcast(1, server::SlotKind::kPush,
                          static_cast<double>(slots));
    ++slots;
    if (slots % 16 == 0) reader.PollMessages(0, nullptr);
    if (absorbed == 0 && stalled_stats->drop_backpressure > 0) {
      absorbed = stalled_stats->slots_tx_epoch;
    }
  }
  reader.PollMessages(0, nullptr);
  // An unconnected reply socket is refused after qlen + 1 datagrams. That
  // tells the two apart only where the queue limit binds before the send
  // budget: the kernel default of 10 does, systemd's 512 does not.
  const std::uint64_t budget = ConnectedSendBudget(dir_ + "/budget");
  ASSERT_GT(budget, 0U);
  if (qlen + 1 < budget) {
    EXPECT_GT(absorbed, qlen + 1);
  }
  EXPECT_EQ(transport.FindPeerStats("reader")->drop_backpressure, 0U);
  EXPECT_EQ(reader.counters().slots_rx_epoch, slots);

  stalled.Crash();  // Its full buffer would stall Shutdown's FIN retry.
  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, StrayBeforeWelcomeIsCountedAndDropped) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  // Nothing answers the HELLO until a stranger's SLOT is queued on the
  // reply socket, so the stray lands before the WELCOME.
  DatagramClientChannel client;
  sim::Rng rng(3);
  bool connected = false;
  std::thread connector([&] {
    std::string connect_error;
    connected = client.Connect(ClientOptions("mc"), &rng, &connect_error);
  });
  const std::string reply_path = dir_ + "/mc.1";
  for (int i = 0; i < 2000 && !std::filesystem::exists(reply_path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RawSocket stranger(dir_ + "/stranger");
  const bool stray_sent = stranger.SendTo(reply_path, "bdw1 SLOT 1 2 P 3");
  ServerPump pump(&transport);
  connector.join();
  pump.Stop();
  ASSERT_TRUE(stray_sent);
  ASSERT_TRUE(connected);

  EXPECT_EQ(client.counters().malformed_rx, 1U);
  EXPECT_EQ(client.counters().slots_rx_total, 0U);
  // What is left is the WELCOME to a retried HELLO, if any; never the
  // stray.
  std::vector<wire::Message> messages;
  client.PollMessages(50, &messages);
  for (const wire::Message& msg : messages) {
    EXPECT_EQ(msg.type, wire::MsgType::kWelcome);
  }
  EXPECT_EQ(client.counters().malformed_rx, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, KernelRefusesStrangersAfterWelcome) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));

  RawSocket stranger(dir_ + "/stranger");
  const bool sent = stranger.SendTo(client.epoch_path(), "bdw1 FIN spoofed");
  const int send_errno = errno;
  EXPECT_FALSE(sent);
  EXPECT_EQ(send_errno, EPERM);
  EXPECT_EQ(client.PollMessages(50, nullptr), 0);
  EXPECT_TRUE(client.Connected());
  EXPECT_EQ(client.counters().malformed_rx, 0U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, PeerSendersNeverOutliveTheirPeers) {
  const std::size_t before = OpenFdCount();
  {
    sim::Simulator sim;
    BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                           sim::Rng(1));
    DatagramServerTransport transport;
    server_options_.heartbeat_deadline = 5.0;
    std::string error;
    ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
    // The serving socket plus the spare sender.
    const std::size_t idle = before + 2;
    EXPECT_EQ(OpenFdCount(), idle);
    sim::Rng rng(3);

    // connect -> BYE.
    DatagramClientChannel a;
    ASSERT_TRUE(PumpedConnect(&transport, &a, ClientOptions("a"), &rng));
    {
      ServerPump pump(&transport);
      EXPECT_TRUE(a.Goodbye(nullptr, 2000));
    }
    EXPECT_EQ(OpenFdCount(), idle);

    // crash -> reconnect -> BYE: one sender across both epochs.
    DatagramClientChannel b;
    ASSERT_TRUE(PumpedConnect(&transport, &b, ClientOptions("b"), &rng));
    b.Crash();
    ASSERT_TRUE(PumpedConnect(&transport, &b, ClientOptions("b"), &rng));
    EXPECT_EQ(OpenFdCount(), idle + 2);  // b's reply socket and sender.
    {
      ServerPump pump(&transport);
      EXPECT_TRUE(b.Goodbye(nullptr, 2000));
    }
    EXPECT_EQ(OpenFdCount(), idle);

    // eviction.
    DatagramClientChannel c;
    ASSERT_TRUE(PumpedConnect(&transport, &c, ClientOptions("c"), &rng));
    EXPECT_EQ(transport.EvictDeadPeers(10.0), 1);
    c.PollMessages(500, nullptr);  // The farewell FIN closes c.
    EXPECT_FALSE(c.Connected());
    EXPECT_EQ(OpenFdCount(), idle);

    // Shutdown with a peer still connected.
    DatagramClientChannel d;
    ASSERT_TRUE(PumpedConnect(&transport, &d, ClientOptions("d"), &rng));
    transport.Shutdown("test");
    d.PollMessages(500, nullptr);
    EXPECT_FALSE(d.Connected());
  }
  EXPECT_EQ(OpenFdCount(), before);
}

}  // namespace
}  // namespace bdisk::transport
