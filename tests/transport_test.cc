// The transport seam (transport/transport.h) and the live backend:
// SimTransport's submit-forwarding identity, the loopback
// HELLO/WELCOME/PULL/SLOT protocol, heartbeat eviction, crash/reconnect
// epoch accounting, dead-peer drop counting, the BYE -> STATS
// reconciliation handshake, the max_peers admission cap, socket-path
// validation, and the per-peer downlink pipes: every HELLO hands over a
// fresh pipe and ends the old one after its last slot, a stalled reader
// absorbs its own pipe's capacity, an early epoch's slots wait on the
// pipe, and no pipe outlives its peer. A fake server bound at the serving
// path feeds a real client channel hostile datagrams, descriptors and
// lines. Wall-clock deadlines are driven with explicit timestamps — no
// sleeping for eviction tests.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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

/// Owns one descriptor; closes it when destroyed or reset.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~Fd() { reset(); }

  int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

struct Pipe {
  Fd read;
  Fd write;
};

Pipe MakePipe() {
  int ends[2] = {-1, -1};
  EXPECT_EQ(::pipe2(ends, O_NONBLOCK | O_CLOEXEC), 0);
  return Pipe{Fd(ends[0]), Fd(ends[1])};
}

/// True when the kernel took all of `text` in one write.
bool WriteAll(const Fd& fd, const std::string& text) {
  return ::write(fd.get(), text.data(), text.size()) ==
         static_cast<ssize_t>(text.size());
}

/// True when `fd`'s pipe has no reader left: a write fails with EPIPE.
bool ReaderGone(const Fd& fd) {
  return ::write(fd.get(), "x", 1) < 0 && errno == EPIPE;
}

/// Reads everything queued on a downlink pipe's read end and splits it
/// into lines. True when the pipe reached EOF.
bool ReadLines(const Fd& fd, std::vector<std::string>* lines) {
  std::string bytes;
  char buf[4096];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n <= 0) {
      eof = n == 0;
      break;
    }
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t start = 0;
  for (std::size_t end; (end = bytes.find('\n', start)) != std::string::npos;
       start = end + 1) {
    lines->push_back(bytes.substr(start, end - start));
  }
  EXPECT_EQ(start, bytes.size()) << "a partial line on the pipe";
  return eof;
}

/// A datagram socket driven by hand: a raw client that keeps the
/// WELCOME's pipe to itself, a fake server bound at the serving path, or
/// a stranger.
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

  /// True when the kernel took the whole datagram, with `fds` attached
  /// as SCM_RIGHTS; errno says why not.
  bool SendTo(const std::string& path, const std::string& text,
              std::initializer_list<int> fds = {}) const {
    sockaddr_un addr = PathAddr(path);
    iovec iov{const_cast<char*>(text.data()), text.size()};
    alignas(cmsghdr) char control[CMSG_SPACE(8 * sizeof(int))] = {};
    msghdr msg{};
    msg.msg_name = &addr;
    msg.msg_namelen = sizeof(addr);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    if (fds.size() > 0) {
      msg.msg_control = control;
      msg.msg_controllen = CMSG_SPACE(fds.size() * sizeof(int));
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(fds.size() * sizeof(int));
      std::memcpy(CMSG_DATA(cmsg), fds.begin(), fds.size() * sizeof(int));
    }
    return ::sendmsg(fd_, &msg, MSG_DONTWAIT) ==
           static_cast<ssize_t>(text.size());
  }

  /// Waits up to `timeout_ms` for one datagram: its text, its source path
  /// (when `from` is non-null) and its first descriptor (-1 for none).
  bool Receive(int timeout_ms, std::string* text, std::string* from,
               Fd* fd) const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char buf[512];
    sockaddr_un addr{};
    iovec iov{buf, sizeof(buf)};
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
    msghdr msg{};
    msg.msg_name = &addr;
    msg.msg_namelen = sizeof(addr);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t n = ::recvmsg(fd_, &msg, MSG_DONTWAIT | MSG_CMSG_CLOEXEC);
    if (n < 0) return false;
    text->assign(buf, static_cast<std::size_t>(n));
    if (from != nullptr) from->assign(addr.sun_path);
    const cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    int received = -1;
    if (cmsg != nullptr && cmsg->cmsg_type == SCM_RIGHTS) {
      std::memcpy(&received, CMSG_DATA(cmsg), sizeof(int));
    }
    *fd = Fd(received);
    return true;
  }

 private:
  std::string path_;
  int fd_;
  bool bound_ = false;
};

/// Sends a raw HELLO, lets the server answer it, and takes the WELCOME's
/// pipe into `pipe`.
void RawHello(const RawSocket& raw, DatagramServerTransport* transport,
              const std::string& server_path, Fd* pipe) {
  ASSERT_TRUE(raw.SendTo(server_path, "bdw1 HELLO raw"));
  EXPECT_EQ(transport->Poll(0.0), 1);
  std::string text;
  ASSERT_TRUE(raw.Receive(500, &text, nullptr, pipe));
  EXPECT_EQ(text, "bdw1 WELCOME 8 16 1000");
  ASSERT_GE(pipe->get(), 0);
}

std::size_t CountSlots(const std::vector<std::string>& lines) {
  std::size_t slots = 0;
  for (const std::string& line : lines) {
    wire::Message msg;
    if (wire::ParseMessage(line, &msg, nullptr) &&
        msg.type == wire::MsgType::kSlot) {
      ++slots;
    }
  }
  return slots;
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

  // One delivered slot fans out as one line on the peer's pipe.
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

  // Crash: the pipe's read end dies with the process. Slot writes now
  // fail with EPIPE and are counted as dead-peer drops — but the peer is
  // NOT evicted, so its identity and cumulative counters survive the
  // restart.
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
  // prior slot (the pipe is FIFO), so both tallies reconcile with ==.
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

TEST_F(DatagramTransportTest, DuplicateHelloHandsOverAFreshPipe) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  RawSocket raw(dir_ + "/raw.1");
  ASSERT_TRUE(raw.bound());
  Fd first;
  RawHello(raw, &transport, server_options_.socket_path, &first);

  // A second HELLO from the same live socket is answered with a new
  // WELCOME and a new pipe. The next SLOT goes down the new pipe; the old
  // one ends, and its end costs no slot.
  ASSERT_TRUE(raw.SendTo(server_options_.socket_path, "bdw1 HELLO raw"));
  EXPECT_EQ(transport.Poll(1.0), 1);
  EXPECT_EQ(transport.counters().reconnects, 1U);
  std::string text;
  Fd second;
  ASSERT_TRUE(raw.Receive(500, &text, nullptr, &second));
  EXPECT_EQ(text, "bdw1 WELCOME 8 16 1000");
  ASSERT_GE(second.get(), 0);
  transport.OnBroadcast(3, server::SlotKind::kPush, 1.0);

  std::vector<std::string> lines;
  EXPECT_FALSE(ReadLines(second, &lines));
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0], "bdw1 SLOT 0 3 P 1");
  lines.clear();
  EXPECT_TRUE(ReadLines(first, &lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(transport.counters().drop_dead_peer, 0U);
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 1U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, StalledReaderAbsorbsPastQlenAndStarvesNoOne) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  // Slots fanned out to nobody move the sequence to 100000, so every line
  // below, "bdw1 SLOT <6 digits> 1 P 1000000000\n", is 32 bytes: a
  // divisor of the page, so the pipe packs them without slack.
  constexpr double kTime = 1e9;
  constexpr std::uint64_t kLineBytes = 32;
  for (int i = 0; i < 100000; ++i) {
    transport.OnBroadcast(1, server::SlotKind::kPush, kTime);
  }
  RawSocket raw(dir_ + "/raw.1");
  ASSERT_TRUE(raw.bound());
  Fd stalled;
  RawHello(raw, &transport, server_options_.socket_path, &stalled);
  const int capacity = ::fcntl(stalled.get(), F_GETPIPE_SZ);
  ASSERT_GT(capacity, 0);
  DatagramClientChannel reader;
  sim::Rng rng(3);
  ASSERT_TRUE(
      PumpedConnect(&transport, &reader, ClientOptions("reader"), &rng));

  // The raw peer never reads its pipe: it absorbs the pipe's capacity,
  // far past the max_dgram_qlen a reply socket would impose, before the
  // first drop. `reader` drains every 16 slots and, with a pipe of its
  // own, loses nothing then or afterwards.
  const wire::PeerStats* stalled_stats = transport.FindPeerStats("raw");
  std::uint64_t slots = 0;
  std::uint64_t absorbed = 0;
  const std::uint64_t lines = static_cast<std::uint64_t>(capacity) / kLineBytes;
  while (slots < lines + 1000 && (absorbed == 0 || slots < absorbed + 100)) {
    transport.OnBroadcast(1, server::SlotKind::kPush, kTime);
    ++slots;
    if (slots % 16 == 0) reader.PollMessages(0, nullptr);
    if (absorbed == 0 && stalled_stats->drop_backpressure > 0) {
      absorbed = stalled_stats->slots_tx_epoch;
    }
  }
  reader.PollMessages(0, nullptr);
  std::string line;
  wire::FormatSlot(100000 + slots, 1, server::SlotKind::kPush, kTime, &line);
  ASSERT_EQ(line.size() + 1, kLineBytes);
  EXPECT_EQ(absorbed, lines);
  EXPECT_EQ(stalled_stats->drop_backpressure, 100U);
  EXPECT_EQ(transport.FindPeerStats("reader")->drop_backpressure, 0U);
  EXPECT_EQ(reader.counters().slots_rx_epoch, slots);

  stalled.reset();  // Its full pipe would stall Shutdown's FIN retry.
  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, EarlyEpochSlotsWaitOnThePipe) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;

  // The client has not read its WELCOME yet, so the pipe's read end is
  // still in flight on its socket. The slots sent meanwhile wait on the
  // pipe; none meets the reply socket's queue limit.
  RawSocket raw(dir_ + "/raw.1");
  ASSERT_TRUE(raw.bound());
  ASSERT_TRUE(raw.SendTo(server_options_.socket_path, "bdw1 HELLO raw"));
  EXPECT_EQ(transport.Poll(0.0), 1);
  for (int i = 0; i < 40; ++i) {
    transport.OnBroadcast(1, server::SlotKind::kPush, i);
  }
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 40U);
  EXPECT_EQ(transport.counters().drop_backpressure, 0U);

  std::string text;
  Fd pipe;
  ASSERT_TRUE(raw.Receive(500, &text, nullptr, &pipe));
  EXPECT_EQ(text, "bdw1 WELCOME 8 16 1000");
  std::vector<std::string> lines;
  EXPECT_FALSE(ReadLines(pipe, &lines));
  EXPECT_EQ(lines.size(), 40U);
  EXPECT_EQ(CountSlots(lines), 40U);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, ReHelloEndsTheOldPipeAfterItsLastSlot) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  RawSocket raw(dir_ + "/raw.1");
  ASSERT_TRUE(raw.bound());
  Fd first;
  RawHello(raw, &transport, server_options_.socket_path, &first);
  for (int i = 0; i < 5; ++i) {
    transport.OnBroadcast(1, server::SlotKind::kPush, i);
  }
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 5U);

  // The second HELLO starts a new epoch on a new pipe. The old pipe holds
  // exactly the slots sent before it, then EOF.
  Fd second;
  RawHello(raw, &transport, server_options_.socket_path, &second);
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 0U);
  for (int i = 5; i < 8; ++i) {
    transport.OnBroadcast(1, server::SlotKind::kPush, i);
  }
  std::vector<std::string> lines;
  EXPECT_TRUE(ReadLines(first, &lines));
  ASSERT_EQ(lines.size(), 5U);
  EXPECT_EQ(CountSlots(lines), 5U);
  EXPECT_EQ(lines.front(), "bdw1 SLOT 0 1 P 0");
  EXPECT_EQ(lines.back(), "bdw1 SLOT 4 1 P 4");
  lines.clear();
  EXPECT_FALSE(ReadLines(second, &lines));
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines.front(), "bdw1 SLOT 5 1 P 5");
  EXPECT_EQ(transport.FindPeerStats("raw")->slots_tx_epoch, 3U);
  EXPECT_EQ(transport.counters().drop_dead_peer, 0U);

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

TEST_F(DatagramTransportTest, StrangersAtTheReplySocketAreCountedAndClosed) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                         sim::Rng(1));
  DatagramServerTransport transport;
  std::string error;
  ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
  DatagramClientChannel client;
  sim::Rng rng(3);
  ASSERT_TRUE(PumpedConnect(&transport, &client, ClientOptions("mc"), &rng));

  // The reply socket is not connected to anyone, so the kernel lets a
  // stranger in; the channel refuses what it sends, once per datagram,
  // and closes any descriptor that came with it.
  RawSocket stranger(dir_ + "/stranger");
  ASSERT_TRUE(stranger.SendTo(client.epoch_path(), "bdw1 FIN spoofed"));
  Pipe pipe = MakePipe();
  ASSERT_TRUE(stranger.SendTo(client.epoch_path(), "bdw1 WELCOME 8 16 1000",
                              {pipe.read.get()}));
  pipe.read.reset();
  std::vector<wire::Message> messages;
  EXPECT_EQ(client.PollMessages(50, &messages), 2);
  EXPECT_TRUE(messages.empty());
  EXPECT_EQ(client.counters().malformed_rx, 2U);
  EXPECT_EQ(client.counters().welcomes_rx, 1U);
  EXPECT_TRUE(client.Connected());
  EXPECT_TRUE(ReaderGone(pipe.write));

  // The server's own pipe still delivers.
  transport.OnBroadcast(2, server::SlotKind::kPush, 1.0);
  EXPECT_EQ(client.PollMessages(50, &messages), 1);
  ASSERT_EQ(messages.size(), 1U);
  EXPECT_EQ(messages[0].type, wire::MsgType::kSlot);

  transport.Shutdown("test");
}

TEST_F(DatagramTransportTest, DownlinkPipesNeverOutliveTheirPeers) {
  const std::size_t before = OpenFdCount();
  {
    sim::Simulator sim;
    BroadcastServer server(&sim, BroadcastProgram({}, 8), 1.0, 16,
                           sim::Rng(1));
    DatagramServerTransport transport;
    server_options_.heartbeat_deadline = 5.0;
    std::string error;
    ASSERT_TRUE(transport.Bind(server_options_, &server, &error)) << error;
    // The serving socket alone: no spare of anything.
    const std::size_t idle = before + 1;
    EXPECT_EQ(OpenFdCount(), idle);
    // A live peer: the client's reply socket and pipe read end, and the
    // server's write end.
    const std::size_t one_peer = idle + 3;
    sim::Rng rng(3);

    // connect -> BYE.
    DatagramClientChannel a;
    ASSERT_TRUE(PumpedConnect(&transport, &a, ClientOptions("a"), &rng));
    EXPECT_EQ(OpenFdCount(), one_peer);
    {
      ServerPump pump(&transport);
      EXPECT_TRUE(a.Goodbye(nullptr, 2000));
    }
    EXPECT_EQ(OpenFdCount(), idle);

    // crash -> reconnect -> BYE: the crashed epoch leaves only the
    // server's write end, and the reconnect's WELCOME replaces it.
    DatagramClientChannel b;
    ASSERT_TRUE(PumpedConnect(&transport, &b, ClientOptions("b"), &rng));
    b.Crash();
    EXPECT_EQ(OpenFdCount(), idle + 1);
    ASSERT_TRUE(PumpedConnect(&transport, &b, ClientOptions("b"), &rng));
    EXPECT_EQ(OpenFdCount(), one_peer);
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

/// A real DatagramClientChannel against a fake server: a raw socket bound
/// at the serving path that answers the HELLO with a WELCOME and a pipe
/// whose write end the test holds. What the fake server sends next is
/// hostile. Every test ends with as many open descriptors as it started.
class FakeServerTest : public DatagramTransportTest {
 protected:
  static constexpr char kWelcome[] = "bdw1 WELCOME 8 16 1000";

  void SetUp() override {
    DatagramTransportTest::SetUp();
    // The test writes to pipes whose reader the channel may have closed.
    std::signal(SIGPIPE, SIG_IGN);
    fds_before_ = OpenFdCount();
    server_ = std::make_unique<RawSocket>(server_options_.socket_path);
    ASSERT_TRUE(server_->bound());
    client_ = std::make_unique<DatagramClientChannel>();
    sim::Rng rng(3);
    bool connected = false;
    std::thread connector([&] {
      std::string error;
      connected = client_->Connect(ClientOptions("mc"), &rng, &error);
    });
    std::string hello;
    Fd none;
    const bool heard = server_->Receive(2000, &hello, &client_path_, &none);
    if (heard) pipe_ = Welcome();
    connector.join();
    ASSERT_TRUE(heard);
    EXPECT_EQ(hello, "bdw1 HELLO mc");
    ASSERT_TRUE(connected);
    ASSERT_EQ(client_->counters().welcomes_rx, 1U);
  }

  void TearDown() override {
    client_.reset();
    server_.reset();
    pipe_.reset();
    EXPECT_EQ(OpenFdCount(), fds_before_);
    DatagramTransportTest::TearDown();
  }

  /// Sends a WELCOME with a fresh pipe's read end; returns the write end.
  Fd Welcome() {
    Pipe pipe = MakePipe();
    EXPECT_TRUE(server_->SendTo(client_path_, kWelcome, {pipe.read.get()}));
    return std::move(pipe.write);
  }

  /// Polls once: exactly one more refusal, nothing taken, the channel
  /// still open on the same epoch and still reading its pipe.
  void ExpectOneRefusal() {
    const ClientCounters before = client_->counters();
    std::vector<wire::Message> messages;
    EXPECT_EQ(client_->PollMessages(200, &messages), 1);
    EXPECT_TRUE(messages.empty());
    EXPECT_EQ(client_->counters().malformed_rx, before.malformed_rx + 1);
    EXPECT_EQ(client_->counters().welcomes_rx, before.welcomes_rx);
    EXPECT_EQ(client_->counters().fins_rx, before.fins_rx);
    ASSERT_TRUE(client_->Connected());
    ASSERT_TRUE(WriteAll(pipe_, "bdw1 SLOT 7 1 P 7\n"));
    EXPECT_EQ(client_->PollMessages(200, &messages), 1);
    ASSERT_EQ(messages.size(), 1U);
    EXPECT_EQ(messages[0].type, wire::MsgType::kSlot);
    EXPECT_EQ(messages[0].seq, 7U);
    EXPECT_EQ(client_->counters().slots_rx_epoch, before.slots_rx_epoch + 1);
  }

  std::unique_ptr<RawSocket> server_;
  std::unique_ptr<DatagramClientChannel> client_;
  std::string client_path_;  // The HELLO's source: the epoch socket.
  Fd pipe_;                  // The write end of the channel's pipe.
  std::size_t fds_before_ = 0;
};

TEST_F(FakeServerTest, WelcomeWithoutADescriptorIsRefused) {
  ASSERT_TRUE(server_->SendTo(client_path_, kWelcome));
  ExpectOneRefusal();
}

TEST_F(FakeServerTest, WelcomeWithASocketOrDevNullIsRefused) {
  const std::size_t fds = OpenFdCount();
  {
    Fd socket(::socket(AF_UNIX, SOCK_DGRAM, 0));
    ASSERT_GE(socket.get(), 0);
    ASSERT_TRUE(server_->SendTo(client_path_, kWelcome, {socket.get()}));
  }
  ExpectOneRefusal();
  {
    Fd null(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    ASSERT_GE(null.get(), 0);
    ASSERT_TRUE(server_->SendTo(client_path_, kWelcome, {null.get()}));
  }
  ExpectOneRefusal();
  EXPECT_EQ(OpenFdCount(), fds);
}

TEST_F(FakeServerTest, WelcomeWithAPipeWriteEndIsRefused) {
  const std::size_t fds = OpenFdCount();
  {
    Pipe pipe = MakePipe();
    ASSERT_TRUE(
        server_->SendTo(client_path_, kWelcome, {pipe.write.get()}));
  }
  ExpectOneRefusal();
  EXPECT_EQ(OpenFdCount(), fds);
}

TEST_F(FakeServerTest, DescriptorsOnSlotAndFinDatagramsAreClosed) {
  Pipe slot = MakePipe();
  ASSERT_TRUE(server_->SendTo(client_path_, "bdw1 SLOT 1 2 P 3",
                              {slot.read.get()}));
  slot.read.reset();
  ExpectOneRefusal();
  EXPECT_TRUE(ReaderGone(slot.write));
  // A FIN with a descriptor attached is refused whole: it closes nothing.
  Pipe fin = MakePipe();
  ASSERT_TRUE(
      server_->SendTo(client_path_, "bdw1 FIN full", {fin.read.get()}));
  fin.read.reset();
  ExpectOneRefusal();
  EXPECT_TRUE(ReaderGone(fin.write));
}

TEST_F(FakeServerTest, ExtraDescriptorsAreAllClosed) {
  // Two read ends in one WELCOME, then six: more than the channel's
  // control buffer holds, so the kernel cuts some off (MSG_CTRUNC) and
  // the channel closes the ones that did arrive.
  for (const std::size_t count : {2U, 6U}) {
    std::vector<Pipe> pipes;
    for (std::size_t i = 0; i < count; ++i) pipes.push_back(MakePipe());
    bool sent = false;
    if (count == 2) {
      sent = server_->SendTo(client_path_, kWelcome,
                             {pipes[0].read.get(), pipes[1].read.get()});
    } else {
      sent = server_->SendTo(
          client_path_, kWelcome,
          {pipes[0].read.get(), pipes[1].read.get(), pipes[2].read.get(),
           pipes[3].read.get(), pipes[4].read.get(), pipes[5].read.get()});
    }
    ASSERT_TRUE(sent);
    for (Pipe& pipe : pipes) pipe.read.reset();
    ExpectOneRefusal();
    for (const Pipe& pipe : pipes) EXPECT_TRUE(ReaderGone(pipe.write));
  }
}

TEST_F(FakeServerTest, DatagramsFromOtherPathsAreRefused) {
  RawSocket stranger(dir_ + "/stranger");
  ASSERT_TRUE(stranger.bound());
  Pipe pipe = MakePipe();
  ASSERT_TRUE(stranger.SendTo(client_path_, kWelcome, {pipe.read.get()}));
  pipe.read.reset();
  ExpectOneRefusal();
  EXPECT_TRUE(ReaderGone(pipe.write));
  // An unnamed sender has no source path at all.
  Fd unnamed(::socket(AF_UNIX, SOCK_DGRAM, 0));
  const sockaddr_un to = PathAddr(client_path_);
  ASSERT_EQ(::sendto(unnamed.get(), "bdw1 FIN full", 13, 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
            13);
  ExpectOneRefusal();
}

TEST_F(FakeServerTest, LineSplitAcrossWritesParsesOnce) {
  ASSERT_TRUE(WriteAll(pipe_, "bdw1 SLOT 1 2"));
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 0);
  ASSERT_TRUE(WriteAll(pipe_, " P 3\n"));
  EXPECT_EQ(client_->PollMessages(200, &messages), 1);
  ASSERT_EQ(messages.size(), 1U);
  EXPECT_EQ(messages[0].type, wire::MsgType::kSlot);
  EXPECT_EQ(messages[0].page, 2U);
  EXPECT_EQ(messages[0].sim_time, 3.0);
  EXPECT_EQ(client_->counters().slots_rx_epoch, 1U);
  EXPECT_EQ(client_->counters().malformed_rx, 0U);
}

TEST_F(FakeServerTest, OverlongLineCountsOnceAndResyncs) {
  ASSERT_TRUE(WriteAll(pipe_, std::string(600, 'x')));
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 1);
  EXPECT_TRUE(messages.empty());
  EXPECT_EQ(client_->counters().malformed_rx, 1U);
  EXPECT_TRUE(client_->Connected());
  // The rest of the overlong line is skipped through its '\n'; the line
  // after it is whole again.
  ASSERT_TRUE(WriteAll(pipe_, "yyy\nbdw1 SLOT 1 2 P 3\n"));
  EXPECT_EQ(client_->PollMessages(200, &messages), 1);
  ASSERT_EQ(messages.size(), 1U);
  EXPECT_EQ(messages[0].type, wire::MsgType::kSlot);
  EXPECT_EQ(client_->counters().malformed_rx, 1U);
}

TEST_F(FakeServerTest, WelcomeLineOnThePipeIsMalformed) {
  ASSERT_TRUE(WriteAll(pipe_, std::string(kWelcome) + "\n"));
  ExpectOneRefusal();
}

TEST_F(FakeServerTest, GarbageLineIsMalformed) {
  ASSERT_TRUE(WriteAll(pipe_, "not a bdw1 message\n"));
  ExpectOneRefusal();
}

TEST_F(FakeServerTest, EofMidLineCountsOnceAndCloses) {
  ASSERT_TRUE(WriteAll(pipe_, "bdw1 SLOT 1 2"));
  pipe_.reset();
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 1);
  EXPECT_TRUE(messages.empty());
  EXPECT_EQ(client_->counters().malformed_rx, 1U);
  EXPECT_FALSE(client_->Connected());
}

TEST_F(FakeServerTest, PipeEofWithoutANewerWelcomeCloses) {
  ASSERT_TRUE(WriteAll(pipe_, "bdw1 SLOT 1 2 P 3\nbdw1 SLOT 2 3 P 4\n"));
  pipe_.reset();
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 2);
  EXPECT_EQ(messages.size(), 2U);
  EXPECT_EQ(client_->counters().slots_rx_epoch, 2U);
  EXPECT_EQ(client_->counters().malformed_rx, 0U);
  EXPECT_EQ(client_->counters().fins_rx, 0U);
  EXPECT_FALSE(client_->Connected());
}

TEST_F(FakeServerTest, ReWelcomeDrainsTheOldPipeIntoTheOldEpoch) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(WriteAll(pipe_, "bdw1 SLOT " + std::to_string(i) +
                                    " 1 P 1\n"));
  }
  Fd second = Welcome();
  pipe_.reset();
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(WriteAll(second, "bdw1 SLOT " + std::to_string(i) +
                                     " 1 P 1\n"));
  }
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 16);
  ASSERT_EQ(messages.size(), 16U);
  EXPECT_EQ(messages[9].seq, 9U);
  EXPECT_EQ(messages[10].type, wire::MsgType::kWelcome);
  EXPECT_EQ(messages[11].seq, 10U);
  EXPECT_EQ(client_->counters().welcomes_rx, 2U);
  EXPECT_EQ(client_->counters().slots_rx_epoch, 5U);
  EXPECT_EQ(client_->counters().slots_rx_total, 15U);
  EXPECT_EQ(client_->counters().malformed_rx, 0U);
  EXPECT_TRUE(client_->Connected());
  pipe_ = std::move(second);
}

TEST_F(FakeServerTest, QueuedWelcomesEachEndTheirEpoch) {
  // Two WELCOMEs queued at once, as when a HELLO retry crosses its first
  // answer: the lines written to the middle pipe before the third
  // WELCOME belong to the middle epoch, and must be read before it ends.
  const auto slots = [](const Fd& fd, int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(WriteAll(fd, "bdw1 SLOT " + std::to_string(i) + " 1 P 1\n"));
    }
  };
  slots(pipe_, 3);
  Fd second = Welcome();
  slots(second, 4);
  Fd third = Welcome();
  pipe_.reset();
  second.reset();
  slots(third, 2);
  std::vector<wire::Message> messages;
  EXPECT_EQ(client_->PollMessages(200, &messages), 11);
  ASSERT_EQ(messages.size(), 11U);
  EXPECT_EQ(messages[3].type, wire::MsgType::kWelcome);
  EXPECT_EQ(messages[8].type, wire::MsgType::kWelcome);
  EXPECT_EQ(client_->counters().welcomes_rx, 3U);
  EXPECT_EQ(client_->counters().slots_rx_epoch, 2U);
  EXPECT_EQ(client_->counters().slots_rx_total, 9U);
  EXPECT_EQ(client_->counters().malformed_rx, 0U);
  pipe_ = std::move(third);
}

}  // namespace
}  // namespace bdisk::transport
