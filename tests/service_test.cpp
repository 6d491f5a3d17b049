// Tests for the tdcd service layer: the framed wire protocol (including
// every hostile-input path — truncated frames, oversized declared lengths,
// mid-request disconnects, slow readers), the daemon's request round trips
// against the offline library results byte for byte, live stats, and
// graceful shutdown draining in-flight work.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bits/rng.h"
#include "codec/select.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"
#include "obs/trace.h"
#include "scan/testset_io.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/server.h"
#include "service/socket.h"

namespace tdc::service {
namespace {

// ---------------------------------------------------------------- framing

/// A connected AF_UNIX socketpair, both ends non-blocking — lets the
/// framing tests exercise FrameReader against real socket semantics
/// (partial reads, EOF) without a listening server.
std::pair<Fd, Fd> make_socketpair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Fd a(fds[0]), b(fds[1]);
  EXPECT_TRUE(set_nonblocking(a.get()).ok());
  EXPECT_TRUE(set_nonblocking(b.get()).ok());
  return {std::move(a), std::move(b)};
}

TEST(FramingTest, RoundTripOverSocketpair) {
  auto [writer, reader_fd] = make_socketpair();
  Frame out;
  out.id = "42";
  out.op = "compress";
  out.add_param("dict", "256");
  out.add_param("codec", "auto");
  out.payload = std::string("binary\0payload\xff", 15);
  ASSERT_TRUE(write_frame(writer.get(), out, 1000).ok());

  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame in;
  Result<bool> got = reader.read(in);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(in.id, "42");
  EXPECT_EQ(in.op, "compress");
  EXPECT_EQ(in.param("dict"), "256");
  EXPECT_EQ(in.param("codec"), "auto");
  EXPECT_EQ(in.payload, out.payload);
}

TEST(FramingTest, BackToBackFramesShareTheBuffer) {
  auto [writer, reader_fd] = make_socketpair();
  for (int i = 0; i < 3; ++i) {
    Frame f;
    f.id = std::to_string(i);
    f.op = "ping";
    f.payload = std::string(static_cast<std::size_t>(i) * 100, 'x');
    ASSERT_TRUE(write_frame(writer.get(), f, 1000).ok());
  }
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  for (int i = 0; i < 3; ++i) {
    Frame f;
    Result<bool> got = reader.read(f);
    ASSERT_TRUE(got.ok() && got.value());
    EXPECT_EQ(f.id, std::to_string(i));
    EXPECT_EQ(f.payload.size(), static_cast<std::size_t>(i) * 100);
  }
}

TEST(FramingTest, LastParamValueWins) {
  Frame f;
  f.add_param("chunk", "1024");
  f.add_param("chunk", "4096");
  EXPECT_EQ(f.param("chunk"), "4096");
  EXPECT_EQ(f.param("missing", "fallback"), "fallback");
}

TEST(FramingTest, CleanEofAtFrameBoundaryReturnsFalse) {
  auto [writer, reader_fd] = make_socketpair();
  writer.reset();  // peer closes without sending anything
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame f;
  Result<bool> got = reader.read(f);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(FramingTest, RejectsBadMagic) {
  auto [writer, reader_fd] = make_socketpair();
  const std::string junk = "HTTP/1.1 GET /\n";
  ASSERT_TRUE(write_all(writer.get(), junk.data(), junk.size(), 1000).ok());
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame f;
  Result<bool> got = reader.read(f);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().kind, ErrorKind::ProtocolError);
}

TEST(FramingTest, RejectsHeaderOverTheCap) {
  auto [writer, reader_fd] = make_socketpair();
  // 8 KiB of header with no newline: must fail at the 4 KiB cap, not
  // accumulate forever.
  const std::string flood(8192, 'a');
  ASSERT_TRUE(write_all(writer.get(), flood.data(), flood.size(), 1000).ok());
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame f;
  Result<bool> got = reader.read(f);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().kind, ErrorKind::ProtocolError);
}

TEST(FramingTest, RejectsOversizedDeclaredPayloadBeforeAllocating) {
  auto [writer, reader_fd] = make_socketpair();
  std::string wire = "tdcd/1 1 ping\n";
  // Declared length 2^60: the reader must refuse from the 8 length bytes
  // alone — the payload is never sent and must never be allocated.
  for (int i = 0; i < 8; ++i) {
    wire.push_back(i == 7 ? static_cast<char>(0x10) : '\0');
  }
  ASSERT_TRUE(write_all(writer.get(), wire.data(), wire.size(), 1000).ok());
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame f;
  Result<bool> got = reader.read(f);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().kind, ErrorKind::ProtocolError);
}

TEST(FramingTest, TruncatedPayloadIsIoError) {
  auto [writer, reader_fd] = make_socketpair();
  Frame f;
  f.id = "1";
  f.op = "ping";
  f.payload = std::string(1000, 'p');
  Result<std::string> wire = encode_frame(f);
  ASSERT_TRUE(wire.ok());
  // Send all but the last 100 payload bytes, then vanish.
  ASSERT_TRUE(
      write_all(writer.get(), wire.value().data(), wire.value().size() - 100, 1000)
          .ok());
  writer.reset();
  FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
  Frame in;
  Result<bool> got = reader.read(in);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().kind, ErrorKind::IoError);
}

TEST(FramingTest, RejectsMalformedParamsAndEmptyTokens) {
  for (const char* header : {
           "tdcd/1\n",                 // missing id and op
           "tdcd/1 7\n",               // missing op
           "tdcd/1 7 ping =v\n",       // empty param key
           "tdcd/1 7 ping noequals\n"  // bare token where key=value expected
       }) {
    auto [writer, reader_fd] = make_socketpair();
    std::string wire = header;
    if (wire.find('\n') != std::string::npos &&
        wire.rfind("tdcd/1 7 ping", 0) == 0) {
      wire += std::string(8, '\0');  // length prefix for structurally ok lines
    }
    ASSERT_TRUE(write_all(writer.get(), wire.data(), wire.size(), 1000).ok());
    FrameReader reader(reader_fd.get(), FrameLimits{}, 1000);
    Frame f;
    Result<bool> got = reader.read(f);
    ASSERT_FALSE(got.ok()) << header;
    EXPECT_EQ(got.error().kind, ErrorKind::ProtocolError) << header;
  }
}

TEST(FramingTest, EncodeRefusesNonTokenFields) {
  Frame f;
  f.id = "has space";
  f.op = "ping";
  EXPECT_FALSE(encode_frame(f).ok());
  f.id = "1";
  f.add_param("key", "value with space");
  EXPECT_FALSE(encode_frame(f).ok());
}

TEST(FramingTest, ErrorKindNamesRoundTrip) {
  for (const ErrorKind kind :
       {ErrorKind::IoError, ErrorKind::ChunkCrcMismatch, ErrorKind::Busy,
        ErrorKind::ProtocolError, ErrorKind::UndefinedCode}) {
    Result<ErrorKind> parsed = parse_error_kind(to_string(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(parse_error_kind("NotAKind").ok());
}

TEST(FramingTest, ErrorFrameRoundTrip) {
  Error e;
  e.kind = ErrorKind::Busy;
  e.message = "in-flight cap reached";
  const Frame frame = make_error_frame("17", e);
  EXPECT_EQ(frame.op, "error");
  EXPECT_EQ(frame.id, "17");
  const Error back = decode_error_frame(frame);
  EXPECT_EQ(back.kind, ErrorKind::Busy);
  EXPECT_NE(back.message.find("in-flight cap"), std::string::npos);
}

// ----------------------------------------------------------------- server

/// Deterministic .tests text: one wide cube, ~85% don't-cares.
std::string tests_text(std::uint64_t seed, std::size_t width = 4096) {
  bits::Rng rng(seed);
  scan::TestSet tests;
  tests.circuit = "synthetic";
  tests.width = static_cast<std::uint32_t>(width);
  bits::TritVector cube(width);
  for (std::size_t i = 0; i < width; ++i) {
    if (!rng.chance(0.85)) {
      cube.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  tests.cubes.push_back(std::move(cube));
  std::ostringstream out;
  scan::write_tests(out, tests);
  return std::move(out).str();
}

/// What `tdc_cli compress` would write for this text with default flags —
/// the byte-identity reference for the daemon's compress op.
std::string offline_container(const std::string& text) {
  std::istringstream in(text);
  const scan::TestSet tests = scan::read_tests(in);
  const auto encoded = lzw::Encoder(lzw::LzwConfig{}).encode(tests.serialize());
  std::ostringstream out;
  lzw::write_image(out, encoded, lzw::ContainerOptions{});
  return std::move(out).str();
}

/// Sets `flag` when a worker thread's body exits by any path — a failed
/// ASSERT_* returns from the lambda early, and a waiter polling `flag` must
/// still see it.
struct SetOnExit {
  std::atomic<bool>& flag;
  ~SetOnExit() { flag.store(true); }
};

class ServiceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    socket_path_ = "/tmp/tdc_svc_" + std::to_string(::getpid()) + "_" +
                   std::to_string(++instance_counter) + ".sock";
    options.socket_path = socket_path_;
    if (options.workers == 0) options.workers = 2;
    server_ = std::make_unique<Server>(std::move(options));
    Status s = server_->start();
    ASSERT_TRUE(s.ok()) << s.error().describe();
  }

  void TearDown() override {
    if (server_) {
      server_->request_stop();
      EXPECT_EQ(server_->wait(), 0);
    }
    ::unlink(socket_path_.c_str());
  }

  Client MustConnect(int io_timeout_ms = 5000) {
    ClientOptions options;
    options.socket_path = socket_path_;
    options.connect_wait_ms = 2000;
    options.io_timeout_ms = io_timeout_ms;
    Result<Client> client = Client::connect(options);
    EXPECT_TRUE(client.ok());
    return std::move(client).take();
  }

  static int instance_counter;
  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

int ServiceTest::instance_counter = 0;

TEST_F(ServiceTest, PingEchoesPayload) {
  StartServer();
  Client client = MustConnect();
  Result<Frame> resp = client.call("ping", {}, "hello tdcd");
  ASSERT_TRUE(resp.ok()) << resp.error().describe();
  EXPECT_EQ(resp.value().payload, "hello tdcd");
}

TEST_F(ServiceTest, CompressMatchesOfflineBytesExactly) {
  StartServer();
  Client client = MustConnect();
  const std::string text = tests_text(7);
  Result<Frame> resp = client.call("compress", {}, text);
  ASSERT_TRUE(resp.ok()) << resp.error().describe();
  // The whole point of the daemon reusing the engine stages: its container
  // is byte-identical to what the offline tool writes.
  EXPECT_EQ(resp.value().payload, offline_container(text));
  EXPECT_EQ(resp.value().param("version"), "2");
  EXPECT_EQ(resp.value().param("container_bytes"),
            std::to_string(resp.value().payload.size()));
}

TEST_F(ServiceTest, DecompressVerifyInspectRoundTrip) {
  StartServer();
  Client client = MustConnect();
  const std::string text = tests_text(11);
  const std::string container = offline_container(text);

  Result<Frame> dec = client.call("decompress", {}, container);
  ASSERT_TRUE(dec.ok()) << dec.error().describe();
  // The daemon's expansion is the same single-cube test set the offline
  // tool writes: fully specified, original width times one pattern.
  std::istringstream decoded_in(dec.value().payload);
  const scan::TestSet decoded = scan::read_tests(decoded_in);
  EXPECT_EQ(decoded.circuit, "decompressed");
  EXPECT_EQ(decoded.cubes.size(), 1u);
  std::istringstream orig_in(text);
  const scan::TestSet original = scan::read_tests(orig_in);
  EXPECT_TRUE(original.serialize().covered_by(decoded.cubes[0]));

  Result<Frame> ver = client.call("verify", {}, container);
  ASSERT_TRUE(ver.ok()) << ver.error().describe();
  EXPECT_NE(ver.value().payload.find("OK"), std::string::npos);

  Result<Frame> ins = client.call("inspect", {}, container);
  ASSERT_TRUE(ins.ok()) << ins.error().describe();
  EXPECT_EQ(ins.value().param("kind"), "image");
  Result<Frame> ins_text = client.call("inspect", {}, text);
  ASSERT_TRUE(ins_text.ok());
  EXPECT_EQ(ins_text.value().param("kind"), "tests");
}

TEST_F(ServiceTest, CompressHonorsCodecAndConfigParams) {
  StartServer();
  Client client = MustConnect();
  const std::string text = tests_text(13);
  Result<Frame> resp = client.call(
      "compress", {{"dict", "256"}, {"entry", "63"}, {"codec", "auto"}}, text);
  ASSERT_TRUE(resp.ok()) << resp.error().describe();
  EXPECT_EQ(resp.value().param("version"), "3");
  // And the v3 container expands back over the daemon too.
  Result<Frame> dec = client.call("decompress", {}, resp.value().payload);
  ASSERT_TRUE(dec.ok()) << dec.error().describe();
}

TEST_F(ServiceTest, CorruptContainerComesBackAsTypedError) {
  StartServer();
  Client client = MustConnect();
  std::string container = offline_container(tests_text(17));
  container[container.size() - 3] ^= 0x40;  // flip a payload bit
  Result<Frame> resp = client.call("verify", {}, container);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(is_container_error(resp.error().kind))
      << to_string(resp.error().kind);
  // The connection survives a failed request: isolation is per job.
  Result<Frame> ping = client.call("ping");
  EXPECT_TRUE(ping.ok());
}

TEST_F(ServiceTest, BadConfigParamsAreTypedNotFatal) {
  StartServer();
  Client client = MustConnect();
  Result<Frame> junk =
      client.call("compress", {{"dict", "notanumber"}}, tests_text(3));
  ASSERT_FALSE(junk.ok());
  EXPECT_EQ(junk.error().kind, ErrorKind::ProtocolError);
  Result<Frame> bad =
      client.call("compress", {{"dict", "3"}}, tests_text(3));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, ErrorKind::ConfigMismatch);
  EXPECT_TRUE(client.call("ping").ok());
}

TEST_F(ServiceTest, UnknownOpIsProtocolError) {
  StartServer();
  Client client = MustConnect();
  Result<Frame> resp = client.call("transmogrify");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().kind, ErrorKind::ProtocolError);
}

TEST_F(ServiceTest, StatsServeLiveRegistryIncludingQueueCounters) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.call("compress", {}, tests_text(23)).ok());
  Result<Frame> stats = client.call("stats");
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  const std::string& json = stats.value().payload;
  // Live queue counters (the JobRunner published a delta on this request,
  // mid-daemon-lifetime — not an end-of-batch export).
  EXPECT_NE(json.find("\"queue.service.pushes\""), std::string::npos);
  EXPECT_NE(json.find("\"runner.jobs\""), std::string::npos);
  // Per-endpoint scopes.
  EXPECT_NE(json.find("\"serve.compress.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.stats.requests\""), std::string::npos);
  EXPECT_TRUE(stats.value().has_param("in_flight"));
}

TEST_F(ServiceTest, StatsAnswersWhileCompressionIsInFlight) {
  StartServer();
  // A big enough payload that the compress genuinely overlaps the stats
  // calls below on two engine workers.
  const std::string big = tests_text(29, 700000);
  std::atomic<bool> done{false};
  std::thread compressor([&] {
    Client client = MustConnect(30000);
    Result<Frame> resp = client.call("compress", {}, big);
    EXPECT_TRUE(resp.ok());
    done.store(true);
  });
  Client client = MustConnect();
  std::size_t served = 0;
  while (!done.load()) {
    Result<Frame> stats = client.call("stats");
    ASSERT_TRUE(stats.ok()) << stats.error().describe();
    ++served;
  }
  compressor.join();
  EXPECT_GE(served, 1u);  // stats never queued behind the busy pool
}

// ---------------------------------------------------------- hostile peers

/// Raw socket for byte-level abuse.
Fd raw_connect(const std::string& path) {
  Result<Fd> fd = connect_unix_retry(path, 2000);
  EXPECT_TRUE(fd.ok());
  return std::move(fd).take();
}

std::uint64_t counter_value(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// Polls the daemon's stats until `name` reaches `at_least` — a hostile
/// connection's teardown is asynchronous to the well-behaved client, so a
/// single snapshot would race the counter increment.
std::uint64_t wait_for_counter(Client& client, const std::string& name,
                               std::uint64_t at_least) {
  std::uint64_t last = 0;
  for (int i = 0; i < 150; ++i) {
    Result<Frame> stats = client.call("stats");
    if (stats.ok()) {
      last = counter_value(stats.value().payload, name);
      if (last >= at_least) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

TEST_F(ServiceTest, TruncatedFrameDoesNotWedgeTheServer) {
  StartServer();
  {
    Fd raw = raw_connect(socket_path_);
    const std::string partial = "tdcd/1 1 comp";  // header cut mid-token
    ASSERT_TRUE(write_all(raw.get(), partial.data(), partial.size(), 1000).ok());
  }  // disconnect mid-header
  {
    Fd raw = raw_connect(socket_path_);
    std::string wire = "tdcd/1 2 ping\n";
    wire += std::string(7, '\0');  // 7 of the 8 length bytes, then vanish
    ASSERT_TRUE(write_all(raw.get(), wire.data(), wire.size(), 1000).ok());
  }  // disconnect mid-length-prefix
  // The server must still serve a well-behaved client afterwards.
  Client client = MustConnect();
  ASSERT_TRUE(client.call("ping").ok());
  EXPECT_GE(wait_for_counter(client, "serve.io_errors", 2), 2u);
}

TEST_F(ServiceTest, MidRequestDisconnectIsContained) {
  StartServer();
  {
    Fd raw = raw_connect(socket_path_);
    // A valid header declaring a 100 KiB payload — then vanish.
    std::string wire = "tdcd/1 9 compress\n";
    const std::uint64_t declared = 100 * 1024;
    for (int i = 0; i < 8; ++i) {
      wire.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
    }
    ASSERT_TRUE(write_all(raw.get(), wire.data(), wire.size(), 1000).ok());
  }
  Client client = MustConnect();
  EXPECT_TRUE(client.call("ping").ok());
}

TEST_F(ServiceTest, OversizedDeclaredLengthIsRefusedWithTypedError) {
  ServerOptions options;
  options.max_payload_bytes = 1 << 20;  // 1 MiB cap for the test
  StartServer(std::move(options));
  Fd raw = raw_connect(socket_path_);
  std::string wire = "tdcd/1 6 compress\n";
  for (int i = 0; i < 8; ++i) {
    wire.push_back(i == 7 ? static_cast<char>(0x10) : '\0');  // 2^60 bytes
  }
  ASSERT_TRUE(write_all(raw.get(), wire.data(), wire.size(), 1000).ok());
  FrameReader reader(raw.get(), FrameLimits{}, 5000);
  Frame resp;
  Result<bool> got = reader.read(resp);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(resp.op, "error");
  EXPECT_EQ(decode_error_frame(resp).kind, ErrorKind::ProtocolError);
  // And the next read sees the server hang up.
  Frame next;
  Result<bool> eof = reader.read(next);
  EXPECT_TRUE(!eof.ok() || !eof.value());

  Client client = MustConnect();
  EXPECT_TRUE(client.call("ping").ok());
}

TEST_F(ServiceTest, SlowReaderTimesOutWithoutWedgingWorkers) {
  ServerOptions options;
  options.io_timeout_ms = 300;  // aggressive, to keep the test fast
  StartServer(std::move(options));
  {
    // Ask for a 2 MiB echo and never read it: the response cannot fit the
    // socket buffers, so the connection thread's write must time out — on
    // the connection thread only, never on an engine worker.
    Fd raw = raw_connect(socket_path_);
    Frame f;
    f.id = "1";
    f.op = "ping";
    f.payload = std::string(2 * 1024 * 1024, 'z');
    ASSERT_TRUE(write_frame(raw.get(), f, 5000).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
  }
  // Workers and acceptor are untouched: compress still runs end to end.
  Client client = MustConnect();
  const std::string text = tests_text(31);
  Result<Frame> resp = client.call("compress", {}, text);
  ASSERT_TRUE(resp.ok()) << resp.error().describe();
  EXPECT_EQ(resp.value().payload, offline_container(text));
  EXPECT_GE(wait_for_counter(client, "serve.io_errors", 1), 1u);
}

TEST_F(ServiceTest, ConnectionCapRefusesWithBusyFrame) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(std::move(options));
  Client first = MustConnect();
  ASSERT_TRUE(first.call("ping").ok());  // guarantees the slot is taken

  Fd second = raw_connect(socket_path_);
  FrameReader reader(second.get(), FrameLimits{}, 5000);
  Frame resp;
  Result<bool> got = reader.read(resp);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(resp.op, "error");
  EXPECT_EQ(decode_error_frame(resp).kind, ErrorKind::Busy);
}

TEST_F(ServiceTest, UnreadRefusalsNeverWedgeServiceOrShutdown) {
  // Regression for the busy-refusal write moving outside connections_mutex_:
  // peers that connect over the cap and never read their refusal frame must
  // cost the acceptor at most its own bounded write — the in-cap connection
  // keeps serving, every hostile peer is counted refused, and TearDown's
  // wait() must still drain cleanly with the hostile sockets left open.
  ServerOptions options;
  options.max_connections = 1;
  StartServer(std::move(options));
  Client first = MustConnect();
  ASSERT_TRUE(first.call("ping").ok());  // guarantees the slot is taken

  std::vector<Fd> hostile;
  for (int i = 0; i < 4; ++i) {
    Fd fd = raw_connect(socket_path_);
    ASSERT_TRUE(fd.valid());
    hostile.push_back(std::move(fd));
  }
  EXPECT_GE(wait_for_counter(first, "serve.connections.refused", 4), 4u);
  // The table lock was never held across those writes: the live connection
  // answers immediately even with refusals in flight.
  ASSERT_TRUE(first.call("ping").ok());
  // A refused peer that does read still finds the typed busy frame.
  FrameReader reader(hostile.back().get(), FrameLimits{}, 5000);
  Frame resp;
  Result<bool> got = reader.read(resp);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(decode_error_frame(resp).kind, ErrorKind::Busy);
}

// ------------------------------------------------------------ telemetry

TEST_F(ServiceTest, MetricsOpRendersOpenMetrics) {
  StartServer();
  Client client = MustConnect();
  ASSERT_TRUE(client.call("compress", {}, tests_text(43)).ok());
  Result<Frame> resp = client.call("metrics");
  ASSERT_TRUE(resp.ok()) << resp.error().describe();
  EXPECT_EQ(resp.value().param("format"), "openmetrics");
  const std::string& text = resp.value().payload;
  // Counter family, gauge family (+peak), and a summary with quantiles.
  EXPECT_NE(text.find("# TYPE tdc_serve_compress_requests counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tdc_serve_compress_requests_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_serve_connections_live gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdc_serve_connections_live_peak "), std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_queue_service_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdc_process_rss_bytes "), std::string::npos);
  EXPECT_NE(text.find("# TYPE tdc_serve_compress_micros summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdc_serve_compress_micros{quantile=\"0.99\"} "),
            std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST_F(ServiceTest, StatsSchemaIsPinnedIncludingCodecSelection) {
  // Golden schema check over a fixed request sequence (single worker, so
  // the counters below are exact): the daemon's stats response carries the
  // same codec.selected.* family the offline stats subcommand reports,
  // plus the serve/queue/runner instrument names dashboards key on.
  ServerOptions options;
  options.workers = 1;
  StartServer(std::move(options));
  Client client = MustConnect();
  ASSERT_TRUE(client.call("ping", {}, "x").ok());
  ASSERT_TRUE(
      client.call("compress", {{"codec", "auto"}}, tests_text(41)).ok());
  Result<Frame> stats = client.call("stats");
  ASSERT_TRUE(stats.ok()) << stats.error().describe();
  const std::string& json = stats.value().payload;
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"slowlog\"",
        "\"codec.selected.", "\"codec.select.micros\"", "\"runner.jobs\"",
        "\"runner.ok\"", "\"runner.in_flight\"", "\"queue.service.pushes\"",
        "\"queue.service.depth\"", "\"process.rss_bytes\"",
        "\"serve.ping.requests\"", "\"serve.compress.requests\"",
        "\"serve.compress.micros\"", "\"serve.connections.live\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in\n"
                                                 << json;
  }
  EXPECT_EQ(counter_value(json, "serve.ping.requests"), 1u);
  EXPECT_EQ(counter_value(json, "serve.compress.requests"), 1u);
  EXPECT_EQ(counter_value(json, "runner.jobs"), 1u);
}

TEST_F(ServiceTest, SlowLogRecordsRequestsWithTraceAndSizes) {
  StartServer();
  ClientOptions copts;
  copts.socket_path = socket_path_;
  copts.connect_wait_ms = 2000;
  copts.io_timeout_ms = 10000;
  copts.trace_id = "t-slow";
  Result<Client> client = Client::connect(copts);
  ASSERT_TRUE(client.ok());
  const std::string text = tests_text(47);
  ASSERT_TRUE(client.value().call("compress", {}, text).ok());
  Result<Frame> stats = client.value().call("stats");
  ASSERT_TRUE(stats.ok());
  const std::string& json = stats.value().payload;
  // The compress request landed in the slowlog with its identity intact.
  EXPECT_NE(json.find("\"op\": \"compress\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": \"t-slow\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes_in\": " + std::to_string(text.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"micros\": "), std::string::npos);
  EXPECT_NE(json.find("\"error\": false"), std::string::npos);
}

TEST_F(ServiceTest, StructuredLogEmitsLifecycleEventsAsJsonLines) {
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  ServerOptions options;
  options.log_level = obs::LogLevel::Debug;
  options.log_sink = [&lines_mutex, &lines](const std::string& line) {
    std::lock_guard lock(lines_mutex);
    lines.push_back(line);
  };
  StartServer(std::move(options));
  {
    Client client = MustConnect();
    ASSERT_TRUE(client.call("ping", {}, "x").ok());
  }
  server_->request_stop();
  EXPECT_EQ(server_->wait(), 0);
  server_.reset();

  std::lock_guard lock(lines_mutex);
  const auto has_event = [&](const std::string& name) {
    const std::string needle = "\"event\": \"" + name + "\"";
    return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
      return l.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has_event("server.listen"));
  EXPECT_TRUE(has_event("conn.accept"));
  EXPECT_TRUE(has_event("conn.close"));
  EXPECT_TRUE(has_event("server.stop"));
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts_ms\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"level\": \""), std::string::npos) << line;
  }
}

TEST_F(ServiceTest, TraceIdPropagatesAcrossTheWireIntoDrainedSpans) {
  // One client-stamped trace id must appear on the daemon-side spans —
  // including when the recorder is dumped after a SIGTERM-style drain with
  // the request still in flight (the incident-capture path).
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.enable("/dev/null");
  StartServer();

  const std::string big = tests_text(53, 400000);
  {
    // An inspect rides the run_on_pool path (serve.task span), while the
    // compress below rides JobRunner::submit (engine.<stage> spans) — the
    // same id must thread through both.
    ClientOptions copts;
    copts.socket_path = socket_path_;
    copts.connect_wait_ms = 2000;
    copts.io_timeout_ms = 10000;
    copts.trace_id = "t-42";
    Result<Client> client = Client::connect(copts);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value().call("inspect", {}, tests_text(59)).ok());
  }
  // The inspect's reply leaves from inside its pool task, before the runner
  // retires the task. Wait until it has, or the loop below would take the
  // inspect for the compress and stop the server before the compress
  // connects.
  const auto idle_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->runner().in_flight() != 0 &&
         std::chrono::steady_clock::now() < idle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server_->runner().in_flight(), 0u);
  std::atomic<bool> ok{false};
  std::atomic<bool> finished{false};
  std::thread worker([&] {
    const SetOnExit done{finished};
    ClientOptions copts;
    copts.socket_path = socket_path_;
    copts.connect_wait_ms = 2000;
    copts.io_timeout_ms = 30000;
    copts.trace_id = "t-42";
    Result<Client> client = Client::connect(copts);
    ASSERT_TRUE(client.ok());
    Result<Frame> resp = client.value().call("compress", {}, big);
    ok.store(resp.ok());
  });
  while (!finished.load() && server_->runner().in_flight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server_->request_stop();  // drain with the request (likely) in flight
  EXPECT_EQ(server_->wait(), 0);
  worker.join();
  EXPECT_TRUE(ok.load());
  server_.reset();

  std::ostringstream out;
  rec.write_json(out);
  const std::string json = out.str();
  // Well-formed Chrome trace JSON even though the stop raced the request.
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  const std::string trailer = ", \"displayTimeUnit\": \"ms\"}\n";
  ASSERT_GE(json.size(), trailer.size());
  EXPECT_EQ(json.substr(json.size() - trailer.size()), trailer);
  // The id walks the whole chain: client -> accept -> pool -> codec stages.
  for (const char* name :
       {"\"client.call\"", "\"serve.request\"", "\"serve.task\"",
        "\"engine.encode\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n";
  }
  std::size_t stamped = 0;
  for (std::size_t at = json.find("\"trace\": \"t-42\"");
       at != std::string::npos; at = json.find("\"trace\": \"t-42\"", at + 1)) {
    ++stamped;
  }
  // client.call + serve.request spans for two requests, serve.task for the
  // inspect, engine stage spans for the compress.
  EXPECT_GE(stamped, 5u) << json.substr(0, 2000);
}

TEST_F(ServiceTest, GracefulShutdownDrainsInFlightRequests) {
  StartServer();
  const std::string big = tests_text(37, 400000);
  std::atomic<bool> ok{false};
  std::atomic<bool> finished{false};
  std::thread worker([&] {
    const SetOnExit done{finished};
    Client client = MustConnect(30000);
    Result<Frame> resp = client.call("compress", {}, big);
    ok.store(resp.ok());
  });
  // Stop only once the request is genuinely in flight (the job reached the
  // pool, i.e. the daemon has fully read it) — or already done.
  while (!finished.load() && server_->runner().in_flight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server_->request_stop();
  EXPECT_EQ(server_->wait(), 0);
  worker.join();
  // The in-flight request completed even though the stop raced it.
  EXPECT_TRUE(ok.load());
  // New connections are refused after shutdown (socket file removed).
  ClientOptions copts;
  copts.socket_path = socket_path_;
  EXPECT_FALSE(Client::connect(copts).ok());
  server_.reset();
}

}  // namespace
}  // namespace tdc::service
