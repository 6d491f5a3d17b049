#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

#include "codec/select.h"
#include "exp/flow.h"
#include "gen/suite.h"
#include "harness.h"
#include "lzw/stream_io.h"
#include "scan/testset_io.h"

namespace tdcbench {

double load_profiles(std::vector<Profile>& out) {
  out.clear();
  const auto start = Clock::now();
  std::vector<tdc::exp::PreparedCircuit> prepared;
  for (const tdc::gen::CircuitProfile& p : tdc::gen::table3_suite()) {
    prepared.push_back(tdc::exp::prepare(p));
  }
  const double prepare_s = seconds(Clock::now() - start);
  for (const tdc::exp::PreparedCircuit& pc : prepared) {
    Profile p;
    p.name = pc.profile.name;
    p.config = tdc::exp::paper_lzw_config(pc.profile);
    std::ostringstream text;
    tdc::scan::write_tests(text, pc.tests);
    p.text = std::move(text).str();
    p.trits = pc.tests.total_bits();
    p.itc99 = p.name.rfind("itc_", 0) == 0;
    out.push_back(std::move(p));
  }
  return prepare_s;
}

namespace {

Expected expect(const Profile& profile, const Key& key) {
  using namespace tdc;
  std::istringstream in(profile.text);
  const bits::TritVector stream = scan::read_tests(in).serialize();

  Expected e;
  std::ostringstream out;
  if (key.auto_codec) {
    codec::SelectOptions options = codec::parse_codec_mode("auto").value_or_throw();
    options.lzw = profile.config;
    options.tiebreak = key.tiebreak;
    const codec::EncodedChunks chunks =
        codec::encode_chunks(stream, options).value_or_throw();
    lzw::write_image_v3(out, profile.config, chunks.original_bits,
                        codec::kDefaultChunkTrits, chunks.records);
    e.original_bits = chunks.original_bits;
    e.compressed_bits = chunks.stats_bits;
  } else {
    const lzw::EncodeResult encoded =
        lzw::Encoder(profile.config, key.tiebreak).encode(stream);
    lzw::write_image(out, encoded, lzw::ContainerOptions{});
    e.original_bits = encoded.original_bits;
    e.compressed_bits = encoded.compressed_bits();
  }
  e.container = std::move(out).str();

  // The gate's decode check, done once here: every response must equal
  // this container bytewise, so it decodes to the same covering stream.
  std::istringstream back(e.container);
  const lzw::CompressedImage image = lzw::try_read_image(back).value_or_throw();
  const bits::TritVector decoded = codec::decode_image(image).value_or_throw();
  if (decoded.size() != stream.size() || !stream.covered_by(decoded)) {
    throw std::runtime_error("expected container for " + profile.name +
                             " does not cover its input care bits");
  }
  e.codes = image.code_count;

  // The decompress op's response: the decoded stream as one cube.
  scan::TestSet single;
  single.circuit = "decompressed";
  single.width = static_cast<std::uint32_t>(decoded.size());
  single.cubes.push_back(decoded);
  std::ostringstream text;
  scan::write_tests(text, single);
  e.tests_text = std::move(text).str();
  return e;
}

constexpr tdc::lzw::Tiebreak kTiebreaks[] = {
    tdc::lzw::Tiebreak::First, tdc::lzw::Tiebreak::LowestChar,
    tdc::lzw::Tiebreak::MostRecent, tdc::lzw::Tiebreak::MostChildren,
    tdc::lzw::Tiebreak::Lookahead};

}  // namespace

World make_world(Workload w, std::vector<Profile> profiles) {
  World world;
  world.workload = w;
  world.profiles = std::move(profiles);
  const std::size_t n = world.profiles.size();
  for (std::size_t p = 0; p < n; ++p) {
    if (w == Workload::BatchSuite) {
      for (const tdc::lzw::Tiebreak t : kTiebreaks) world.keys.push_back({p, false, t});
    } else {
      world.keys.push_back({p, false, tdc::lzw::Tiebreak::First});
    }
  }
  if (w == Workload::MixedOpen) {
    for (std::size_t p = 0; p < n; ++p) world.keys.push_back({p, true});
  }
  for (std::uint32_t k = 0; k < world.keys.size(); ++k) {
    world.expected.push_back(expect(world.profiles[world.keys[k].profile], world.keys[k]));
    if (world.keys[k].tiebreak == tdc::lzw::Tiebreak::First) world.daemon_keys.push_back(k);
  }
  return world;
}

tdc::service::Frame World::request_frame(const Request& r) const {
  tdc::service::Frame f;
  f.id = std::to_string(r.key);
  f.op = op_name(r.op);
  switch (r.op) {
    case Op::Compress: {
      const Key& key = keys[r.key];
      const tdc::lzw::LzwConfig& c = profiles[key.profile].config;
      f.params = {{"dict", std::to_string(c.dict_size)},
                  {"char", std::to_string(c.char_bits)},
                  {"entry", std::to_string(c.entry_bits)}};
      if (key.auto_codec) f.params.emplace_back("codec", "auto");
      f.payload = profiles[key.profile].text;
      break;
    }
    case Op::Decompress:
    case Op::Verify:
      f.payload = expected[r.key].container;
      break;
    case Op::Ping:
      f.payload = "ping";
      break;
    case Op::Stats:
      break;
  }
  return f;
}

std::uint64_t World::containers_hash() const {
  std::uint64_t h = fnv1a("");
  for (const Expected& e : expected) h = fnv1a(e.container, h);
  return h;
}

double World::ratio_pct(const std::vector<bool>& done) const {
  double original = 0, compressed = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    if (!done.empty() && !done[k]) continue;
    const Expected& e = expected[k];
    original += static_cast<double>(e.original_bits);
    compressed += static_cast<double>(e.compressed_bits);
  }
  return 100.0 * (1.0 - compressed / original);
}

// ------------------------------------------------------------------ Plan

Plan::Plan(const World& world, std::uint64_t seed) : world_(world), seed_(seed) {
  const auto count = static_cast<std::uint32_t>(world.keys.size());
  switch (world.workload) {
    case Workload::SuiteClosed:
      for (std::uint32_t k = 0; k < count; ++k) base_.push_back({Op::Compress, k});
      break;
    case Workload::DecodeClosed:
      for (std::uint32_t k = 0; k < count; ++k) {
        base_.push_back({Op::Decompress, k});
        base_.push_back({Op::Verify, k});
      }
      break;
    case Workload::MixedOpen:
      round_len_ = cycle(0, 0).size();
      break;
    case Workload::BatchSuite:
      break;
  }
}

std::vector<Request> Plan::cycle(std::uint64_t stream, std::uint64_t index) const {
  std::vector<Request> list;
  if (world_.workload == Workload::MixedOpen) {
    // One round: every ITC99 profile four times (one of them codec=auto),
    // every ISCAS89 profile once (a rotating quarter of them codec=auto),
    // one stats scrape and one ping. Each key occurs in every four rounds.
    const auto n = static_cast<std::uint32_t>(world_.profiles.size());
    std::uint32_t iscas = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      if (world_.profiles[p].itc99) {
        for (int i = 0; i < 3; ++i) list.push_back({Op::Compress, p});
        list.push_back({Op::Compress, n + p});
      } else {
        const bool auto_codec = iscas++ % 4 == index % 4;
        list.push_back({Op::Compress, auto_codec ? n + p : p});
      }
    }
    list.push_back({Op::Stats, 0});
    list.push_back({Op::Ping, 0});
  } else if (world_.workload == Workload::BatchSuite) {
    for (std::uint32_t k = 0; k < world_.keys.size(); ++k) list.push_back({Op::Compress, k});
  } else {
    list = base_;
  }
  std::mt19937_64 rng(fnv1a(std::to_string(seed_) + "/" + std::to_string(stream) +
                            "/" + std::to_string(index)));
  for (std::size_t i = list.size(); i > 1; --i) {
    std::swap(list[i - 1], list[rng() % i]);
  }
  return list;
}

Request Plan::closed(unsigned conn, std::uint64_t index) const {
  return cycle(conn, index / base_.size())[index % base_.size()];
}

Request Plan::slot(std::uint64_t index) const {
  return cycle(0, index / round_len_)[index % round_len_];
}

std::vector<std::uint32_t> Plan::pass_order(std::uint64_t pass) const {
  std::vector<std::uint32_t> order;
  for (const Request& r : cycle(0, pass)) order.push_back(r.key);
  return order;
}

std::uint64_t Plan::sequence_hash(std::uint64_t n) const {
  std::uint64_t h = fnv1a(workload_name(world_.workload));
  const auto mix = [&h](const Request& r) {
    const char bytes[5] = {static_cast<char>(r.op), static_cast<char>(r.key),
                           static_cast<char>(r.key >> 8),
                           static_cast<char>(r.key >> 16),
                           static_cast<char>(r.key >> 24)};
    h = fnv1a(std::string_view(bytes, sizeof bytes), h);
  };
  switch (world_.workload) {
    case Workload::SuiteClosed:
    case Workload::DecodeClosed:
      for (unsigned c = 0; c < kConnections; ++c) {
        for (std::uint64_t i = 0; i < n; ++i) mix(closed(c, i));
      }
      break;
    case Workload::MixedOpen:
      for (std::uint64_t i = 0; i < n; ++i) mix(slot(i));
      break;
    case Workload::BatchSuite:
      for (std::uint64_t pass = 0; pass * world_.keys.size() < n; ++pass) {
        for (const std::uint32_t k : pass_order(pass)) mix({Op::Compress, k});
      }
      break;
  }
  return h;
}

}  // namespace tdcbench
