#include "engine/manifest.h"

#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "codec/select.h"

namespace tdc::engine {

namespace {

Error config_error(std::string message) {
  return Error{ErrorKind::ConfigMismatch, std::move(message)};
}

Error manifest_error(std::size_t line_no, const std::string& message) {
  return config_error("manifest line " + std::to_string(line_no) + ": " + message);
}

bool parse_u64(const std::string& raw, std::uint64_t* out) {
  const auto [end, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), *out);
  return ec == std::errc() && end == raw.data() + raw.size();
}

}  // namespace

std::string resolve_path(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

const char* tiebreak_name(lzw::Tiebreak tiebreak) {
  switch (tiebreak) {
    case lzw::Tiebreak::First: return "first";
    case lzw::Tiebreak::LowestChar: return "lowestchar";
    case lzw::Tiebreak::MostRecent: return "mostrecent";
    case lzw::Tiebreak::MostChildren: return "mostchildren";
    case lzw::Tiebreak::Lookahead: return "lookahead";
  }
  return "?";
}

const char* xassign_name(lzw::XAssignMode mode) {
  switch (mode) {
    case lzw::XAssignMode::Dynamic: return "dynamic";
    case lzw::XAssignMode::ZeroFill: return "zero";
    case lzw::XAssignMode::OneFill: return "one";
    case lzw::XAssignMode::RepeatFill: return "repeat";
    case lzw::XAssignMode::RandomFill: return "random";
  }
  return "?";
}

Result<lzw::Tiebreak> parse_tiebreak(const std::string& name) {
  for (const auto t : {lzw::Tiebreak::First, lzw::Tiebreak::LowestChar,
                       lzw::Tiebreak::MostRecent, lzw::Tiebreak::MostChildren,
                       lzw::Tiebreak::Lookahead}) {
    if (name == tiebreak_name(t)) return t;
  }
  return config_error("unknown tiebreak '" + name + "'");
}

Result<lzw::XAssignMode> parse_xassign(const std::string& name) {
  for (const auto m : {lzw::XAssignMode::Dynamic, lzw::XAssignMode::ZeroFill,
                       lzw::XAssignMode::OneFill, lzw::XAssignMode::RepeatFill,
                       lzw::XAssignMode::RandomFill}) {
    if (name == xassign_name(m)) return m;
  }
  return config_error("unknown xassign mode '" + name + "'");
}

Status set_job_param(JobSpec& spec, const std::string& key, const std::string& value) {
  if (value.empty()) return config_error("empty value for '" + key + "'");
  std::uint64_t n = 0;
  if (key == "tiebreak") {
    Result<lzw::Tiebreak> t = parse_tiebreak(value);
    if (!t.ok()) return t.error();
    spec.tiebreak = t.value();
  } else if (key == "xassign") {
    Result<lzw::XAssignMode> m = parse_xassign(value);
    if (!m.ok()) return m.error();
    spec.xassign = m.value();
  } else if (key == "seed") {
    if (!parse_u64(value, &n)) return config_error("bad seed '" + value + "'");
    spec.rng_seed = n;
  } else if (key == "variable") {
    if (value != "0" && value != "1") return config_error("variable must be 0 or 1");
    spec.config.variable_width = value == "1";
  } else if (key == "codec") {
    Result<codec::SelectOptions> mode = codec::parse_codec_mode(value);
    if (!mode.ok()) return config_error(mode.error().message);
    spec.codec = value;
  } else {
    std::uint32_t* field = key == "dict"        ? &spec.config.dict_size
                           : key == "char"      ? &spec.config.char_bits
                           : key == "entry"     ? &spec.config.entry_bits
                           : key == "container" ? &spec.container.version
                           : key == "chunk"     ? &spec.container.chunk_bytes
                           : key == "chunk_trits" ? &spec.chunk_trits
                                                  : nullptr;
    if (field == nullptr) return config_error("unknown key '" + key + "'");
    if (!parse_u64(value, &n) || n > 0xffffffffull) {
      return config_error("bad " + key + " '" + value + "'");
    }
    if (key == "container" && n != 1 && n != 2) {
      return config_error("container must be 1 or 2");
    }
    if (key == "chunk_trits" && n == 0) {
      return config_error("chunk_trits must be in [1, 2^30], got '0'");
    }
    *field = static_cast<std::uint32_t>(n);
  }
  return {};
}

Status check_job(const JobSpec& spec) {
  const int sources = (!spec.input_path.empty() ? 1 : 0) +
                      (!spec.gen_circuit.empty() ? 1 : 0) +
                      (spec.inline_tests ? 1 : 0);
  if (sources != 1) return config_error("job needs exactly one of input=/gen=");
  if (const std::string why = spec.config.check(); !why.empty()) {
    return config_error(why);
  }
  if (spec.container.chunk_bytes != 0 && spec.container.chunk_bytes < 64) {
    return config_error("chunk must be 0 or >= 64");
  }
  if (spec.codec.empty()) {
    if (spec.chunk_trits != 0) return config_error("chunk_trits needs codec=");
    return {};
  }
  // codec= routes through per-chunk selection and the v3 container; the
  // selection path assigns don't-cares inside each backend, so the
  // whole-buffer xassign modes and the v1/v2 container knobs don't apply.
  if (spec.xassign != lzw::XAssignMode::Dynamic) {
    return config_error("codec= jobs require xassign=dynamic");
  }
  const lzw::ContainerOptions defaults;
  if (spec.container.version != defaults.version ||
      spec.container.chunk_bytes != defaults.chunk_bytes) {
    return config_error("codec= jobs write a v3 container; drop container=/chunk=");
  }
  if (spec.chunk_trits > codec::kMaxChunkTrits) {
    return config_error("chunk_trits must be in [1, 2^30], got '" +
                        std::to_string(spec.chunk_trits) + "'");
  }
  return {};
}

Result<Manifest> parse_manifest(std::istream& in, const std::string& base_dir) {
  Manifest manifest;
  std::set<std::string> names;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head.front() == '#') continue;

    // The optional `version` header is accepted anywhere before or between jobs.
    if (head == "version") {
      std::string v;
      if (!(tokens >> v) || v != "1") {
        return manifest_error(line_no, "unsupported manifest version");
      }
      continue;
    }
    if (head != "job") {
      return manifest_error(line_no, "expected 'job', 'version' or a comment, got '" + head + "'");
    }

    JobSpec spec;
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos && token != "variable") {
        return manifest_error(line_no, "unknown token '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = eq == std::string::npos ? "1" : token.substr(eq + 1);
      if (value.empty()) return manifest_error(line_no, "empty value for '" + key + "'");

      if (key == "name") {
        spec.name = value;
      } else if (key == "input") {
        spec.input_path = resolve_path(base_dir, value);
      } else if (key == "gen") {
        spec.gen_circuit = value;
      } else if (key == "out") {
        spec.output_path = value;
      } else if (Status s = set_job_param(spec, key, value); !s.ok()) {
        return manifest_error(line_no, s.error().message);
      }
    }

    // The engine only ever sees runnable specs.
    if (Status s = check_job(spec); !s.ok()) {
      return manifest_error(line_no, s.error().message);
    }
    if (spec.name.empty()) {
      spec.name = "job" + std::to_string(manifest.jobs.size());
    }
    if (!names.insert(spec.name).second) {
      return manifest_error(line_no, "duplicate job name '" + spec.name + "'");
    }
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

Result<Manifest> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Error e;
    e.kind = ErrorKind::IoError;
    e.message = "cannot open manifest " + path;
    return e;
  }
  const std::size_t slash = path.rfind('/');
  const std::string base_dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return parse_manifest(in, base_dir);
}

}  // namespace tdc::engine
