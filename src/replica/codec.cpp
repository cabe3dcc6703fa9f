#include "replica/codec.hpp"

#include <cstring>
#include <limits>
#include <type_traits>

#include "util/hash.hpp"

namespace insta::replica {

namespace {

constexpr char kMagic[4] = {'I', 'N', 'S', 'R'};
constexpr std::size_t kHeaderBytes = 24;

// ---- writer -----------------------------------------------------------------

void put_bytes(std::string& buf, const void* data, std::size_t n) {
  buf.append(static_cast<const char*>(data), n);
}

template <typename T>
void put(std::string& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(buf, &v, sizeof(T));
}

template <typename T>
void put_vec(std::string& buf, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put(buf, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) put_bytes(buf, v.data(), v.size() * sizeof(T));
}

void put_str(std::string& buf, const std::string& s) {
  put(buf, static_cast<std::uint64_t>(s.size()));
  put_bytes(buf, s.data(), s.size());
}

/// Aggregates travel field by field, never as a struct image, so padding
/// bytes cannot reach the checksummed payload.
constexpr std::size_t kAggregatesBytes = sizeof(double) + sizeof(int) +
                                         sizeof(float) + 2;

void put_aggregates(std::string& buf, const core::Aggregates& a) {
  put(buf, a.tns);
  put(buf, a.violations);
  put(buf, a.worst);
  put(buf, a.any);
  put(buf, a.valid);
}

/// Prepends the frame header to a finished payload.
std::string frame(FrameKind kind, std::string payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  put_bytes(out, kMagic, sizeof(kMagic));
  put(out, kCodecVersion);
  put(out, static_cast<std::uint8_t>(kind));
  put(out, static_cast<std::uint8_t>(0));
  put(out, static_cast<std::uint64_t>(payload.size()));
  put(out, util::fnv1a_64(payload.data(), payload.size()));
  out += payload;
  return out;
}

// ---- reader -----------------------------------------------------------------

/// Bounds-checked payload cursor: every get_* fails soft (error() set, zero
/// value returned) instead of reading past the end, so a truncated or
/// hostile frame can never index out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (!take(sizeof(T))) return v;
    std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }

  template <typename T>
  void get_vec(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    if (failed_) return;
    if (n > data_.size() / sizeof(T)) {  // cheap overflow/limits guard
      fail();
      return;
    }
    if (!take(static_cast<std::size_t>(n) * sizeof(T))) return;
    out.resize(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(out.data(),
                  data_.data() + pos_ - static_cast<std::size_t>(n) * sizeof(T),
                  static_cast<std::size_t>(n) * sizeof(T));
    }
  }

  std::string get_str() {
    const auto n = get<std::uint64_t>();
    if (failed_ || n > data_.size() || !take(static_cast<std::size_t>(n))) {
      fail();
      return {};
    }
    return std::string(
        data_.substr(pos_ - static_cast<std::size_t>(n),
                     static_cast<std::size_t>(n)));
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool take(std::size_t n) {
    if (failed_ || n > data_.size() - pos_) {
      fail();
      return false;
    }
    pos_ += n;
    return true;
  }
  void fail() { failed_ = true; }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

core::Aggregates get_aggregates(Reader& r) {
  core::Aggregates a;
  a.tns = r.get<double>();
  a.violations = r.get<int>();
  a.worst = r.get<float>();
  a.any = r.get<std::uint8_t>();
  a.valid = r.get<std::uint8_t>();
  return a;
}

/// Validates the frame header; returns the payload view or an error.
std::string check_frame(std::string_view bytes, FrameKind want,
                        std::string_view& payload) {
  if (bytes.size() < kHeaderBytes) return "truncated frame header";
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return "bad magic (not an INSR frame)";
  }
  std::uint16_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kCodecVersion) {
    return "unsupported codec version " + std::to_string(version) +
           " (expected " + std::to_string(kCodecVersion) + ")";
  }
  const auto kind = static_cast<std::uint8_t>(bytes[6]);
  if (kind != static_cast<std::uint8_t>(want)) {
    return "unexpected frame kind " + std::to_string(kind);
  }
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + 8, sizeof(size));
  if (size != bytes.size() - kHeaderBytes) {
    return "payload size mismatch (header says " + std::to_string(size) +
           ", frame carries " + std::to_string(bytes.size() - kHeaderBytes) +
           ")";
  }
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, bytes.data() + 16, sizeof(checksum));
  payload = bytes.substr(kHeaderBytes);
  if (checksum != util::fnv1a_64(payload.data(), payload.size())) {
    return "checksum mismatch (corrupted payload)";
  }
  return {};
}

}  // namespace

std::string encode_snapshot(const core::EngineState& s) {
  std::string p;
  put(p, s.generation);
  put(p, s.num_corners);
  put(p, s.num_pins);
  put(p, s.num_slots);
  put(p, s.num_sps);
  put(p, s.num_eps);
  put(p, s.num_arcs);
  put(p, s.top_k);
  put(p, s.tk_stride);
  put(p, s.enable_hold);
  put(p, static_cast<std::uint64_t>(s.corners.size()));
  for (const core::CornerSpec& c : s.corners) {
    put_str(p, c.name);
    put(p, c.delay_scale);
    put(p, c.sigma_scale);
  }
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    put_vec(p, s.amu[rfi]);
    put_vec(p, s.asig[rfi]);
    put_vec(p, s.sp_mu[rfi]);
    put_vec(p, s.sp_sig[rfi]);
  }
  put_vec(p, s.tk_arr);
  put_vec(p, s.tk_mu);
  put_vec(p, s.tk_sig);
  put_vec(p, s.tk_sp);
  put_vec(p, s.tk_cnt);
  put_vec(p, s.tk2_arr);
  put_vec(p, s.tk2_mu);
  put_vec(p, s.tk2_sig);
  put_vec(p, s.tk2_sp);
  put_vec(p, s.tk2_cnt);
  put_vec(p, s.slack);
  put_vec(p, s.hold_slack);
  put_vec(p, s.ep_worst_rf);
  put_vec(p, s.ep_base_req);
  put_vec(p, s.ep_hold_base);
  for (const std::vector<core::Aggregates>& row : s.aggregates) {
    put(p, static_cast<std::uint64_t>(row.size()));
    for (const core::Aggregates& a : row) put_aggregates(p, a);
  }
  return frame(FrameKind::kSnapshot, std::move(p));
}

std::string decode_snapshot(std::string_view bytes, core::EngineState& out) {
  std::string_view payload;
  if (std::string err = check_frame(bytes, FrameKind::kSnapshot, payload);
      !err.empty()) {
    return err;
  }
  Reader r(payload);
  core::EngineState s;
  s.generation = r.get<std::uint64_t>();
  s.num_corners = r.get<std::uint32_t>();
  s.num_pins = r.get<std::uint64_t>();
  s.num_slots = r.get<std::uint64_t>();
  s.num_sps = r.get<std::uint64_t>();
  s.num_eps = r.get<std::uint64_t>();
  s.num_arcs = r.get<std::uint64_t>();
  s.top_k = r.get<std::int32_t>();
  s.tk_stride = r.get<std::uint32_t>();
  s.enable_hold = r.get<std::uint8_t>();
  const auto num_corners = r.get<std::uint64_t>();
  if (r.failed() || num_corners > payload.size()) {
    return "truncated snapshot payload (corner list)";
  }
  s.corners.resize(static_cast<std::size_t>(num_corners));
  for (core::CornerSpec& c : s.corners) {
    c.name = r.get_str();
    c.delay_scale = r.get<float>();
    c.sigma_scale = r.get<float>();
  }
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    r.get_vec(s.amu[rfi]);
    r.get_vec(s.asig[rfi]);
    r.get_vec(s.sp_mu[rfi]);
    r.get_vec(s.sp_sig[rfi]);
  }
  r.get_vec(s.tk_arr);
  r.get_vec(s.tk_mu);
  r.get_vec(s.tk_sig);
  r.get_vec(s.tk_sp);
  r.get_vec(s.tk_cnt);
  r.get_vec(s.tk2_arr);
  r.get_vec(s.tk2_mu);
  r.get_vec(s.tk2_sig);
  r.get_vec(s.tk2_sp);
  r.get_vec(s.tk2_cnt);
  r.get_vec(s.slack);
  r.get_vec(s.hold_slack);
  r.get_vec(s.ep_worst_rf);
  r.get_vec(s.ep_base_req);
  r.get_vec(s.ep_hold_base);
  for (std::vector<core::Aggregates>& row : s.aggregates) {
    const auto n = r.get<std::uint64_t>();
    if (r.failed() || n > payload.size() / kAggregatesBytes) {
      return "truncated snapshot payload (aggregates)";
    }
    row.resize(static_cast<std::size_t>(n));
    for (core::Aggregates& a : row) a = get_aggregates(r);
  }
  if (r.failed()) return "truncated snapshot payload";
  if (!r.exhausted()) return "trailing bytes after snapshot payload";
  out = std::move(s);
  return {};
}

std::string encode_delta(const CommitRecord& rec) {
  std::string p;
  put(p, rec.parent_generation);
  put(p, rec.generation);
  put(p, rec.commit_unix_us);
  put(p, static_cast<std::uint64_t>(rec.sets.size()));
  for (const core::AppliedDeltas& set : rec.sets) {
    put(p, set.corner);
    put(p, static_cast<std::uint64_t>(set.deltas.size()));
    for (const timing::ArcDelta& d : set.deltas) {
      put(p, d.arc);
      put(p, d.mu[0]);
      put(p, d.mu[1]);
      put(p, d.sigma[0]);
      put(p, d.sigma[1]);
    }
  }
  return frame(FrameKind::kDelta, std::move(p));
}

std::string decode_delta(std::string_view bytes, CommitRecord& out) {
  std::string_view payload;
  if (std::string err = check_frame(bytes, FrameKind::kDelta, payload);
      !err.empty()) {
    return err;
  }
  Reader r(payload);
  CommitRecord rec;
  rec.parent_generation = r.get<std::uint64_t>();
  rec.generation = r.get<std::uint64_t>();
  rec.commit_unix_us = r.get<std::int64_t>();
  const auto num_sets = r.get<std::uint64_t>();
  if (r.failed() || num_sets > payload.size()) {
    return "truncated delta payload (set count)";
  }
  rec.sets.resize(static_cast<std::size_t>(num_sets));
  for (core::AppliedDeltas& set : rec.sets) {
    set.corner = r.get<core::CornerId>();
    const auto n = r.get<std::uint64_t>();
    if (r.failed() || n > payload.size()) {
      return "truncated delta payload (delta count)";
    }
    set.deltas.resize(static_cast<std::size_t>(n));
    for (timing::ArcDelta& d : set.deltas) {
      d.arc = r.get<timing::ArcId>();
      d.mu[0] = r.get<double>();
      d.mu[1] = r.get<double>();
      d.sigma[0] = r.get<double>();
      d.sigma[1] = r.get<double>();
    }
  }
  if (r.failed()) return "truncated delta payload";
  if (!r.exhausted()) return "trailing bytes after delta payload";
  out = std::move(rec);
  return {};
}

// ---- base64 -------------------------------------------------------------------

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Decode table: 0..63 for alphabet characters, -1 otherwise, -2 for '='.
constexpr signed char b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return static_cast<signed char>(c - 'A');
  if (c >= 'a' && c <= 'z') return static_cast<signed char>(c - 'a' + 26);
  if (c >= '0' && c <= '9') return static_cast<signed char>(c - '0' + 52);
  if (c == '+') return 62;
  if (c == '/') return 63;
  if (c == '=') return -2;
  return -1;
}
}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const std::uint32_t v = (static_cast<std::uint8_t>(bytes[i]) << 16) |
                            (static_cast<std::uint8_t>(bytes[i + 1]) << 8) |
                            static_cast<std::uint8_t>(bytes[i + 2]);
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += kB64Alphabet[(v >> 6) & 63];
    out += kB64Alphabet[v & 63];
  }
  const std::size_t rem = bytes.size() - i;
  if (rem == 1) {
    const std::uint32_t v = static_cast<std::uint8_t>(bytes[i]) << 16;
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += "==";
  } else if (rem == 2) {
    const std::uint32_t v = (static_cast<std::uint8_t>(bytes[i]) << 16) |
                            (static_cast<std::uint8_t>(bytes[i + 1]) << 8);
    out += kB64Alphabet[(v >> 18) & 63];
    out += kB64Alphabet[(v >> 12) & 63];
    out += kB64Alphabet[(v >> 6) & 63];
    out += '=';
  }
  return out;
}

bool base64_decode(std::string_view text, std::string& out) {
  if (text.size() % 4 != 0) return false;
  std::string result;
  result.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    signed char v[4];
    int pads = 0;
    for (int j = 0; j < 4; ++j) {
      v[j] = b64_value(text[i + j]);
      if (v[j] == -1) return false;
      if (v[j] == -2) {
        // Padding may only appear as the last one or two characters.
        if (i + 4 != text.size() || j < 2) return false;
        ++pads;
        v[j] = 0;
      } else if (pads != 0) {
        return false;  // data after padding
      }
    }
    const std::uint32_t b = (static_cast<std::uint32_t>(v[0]) << 18) |
                            (static_cast<std::uint32_t>(v[1]) << 12) |
                            (static_cast<std::uint32_t>(v[2]) << 6) |
                            static_cast<std::uint32_t>(v[3]);
    result += static_cast<char>((b >> 16) & 0xff);
    if (pads < 2) result += static_cast<char>((b >> 8) & 0xff);
    if (pads < 1) result += static_cast<char>(b & 0xff);
  }
  out = std::move(result);
  return true;
}

}  // namespace insta::replica
