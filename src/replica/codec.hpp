#pragma once

// Versioned binary codec of the replication subsystem: full engine-state
// snapshots (core::EngineState) and generation-stamped commit deltas
// (CommitRecord) serialize to self-describing frames that round-trip every
// float bit-exactly.
//
// Frame layout (all integers native-endian; replication targets processes
// of the same build on the same architecture, and the magic/version/shape
// checks reject anything else):
//
//   offset size  field
//   0      4     magic "INSR"
//   4      2     codec version (kCodecVersion)
//   6      1     frame kind (FrameKind)
//   7      1     reserved (0)
//   8      8     payload size in bytes
//   16     8     FNV-1a-64 checksum of the payload bytes
//   24     n     payload
//
// Payload scalars/arrays are raw memcpy images — floats ship by bit
// pattern, which is what makes "replica state is byte-identical to the
// writer" a property of the transport, not a hope. Structs (the per-mode
// core::Aggregates blocks of a snapshot, since version 2) are written
// field by field, so no padding byte reaches the checksummed payload.
// decode_* rejects bad magic, unknown version, wrong kind, size mismatch,
// truncation, and checksum failure with a descriptive error string and
// touches the output only on success.
//
// NDJSON transport: frames travel inside JSON strings as base64
// (base64_encode / base64_decode below).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"

namespace insta::replica {

inline constexpr std::uint16_t kCodecVersion = 2;

enum class FrameKind : std::uint8_t { kSnapshot = 1, kDelta = 2 };

/// One committed serve-layer edit transaction, stamped with the writer
/// generations it moves between: applying `sets` (in order, each through
/// annotate(deltas, corner)) to an engine clean at parent_generation and
/// running one incremental pass yields the writer's state at `generation`,
/// byte for byte.
struct CommitRecord {
  std::uint64_t parent_generation = 0;
  std::uint64_t generation = 0;
  /// Writer wall clock (microseconds since the Unix epoch) at commit;
  /// replicas subtract it from their apply time to measure replication lag.
  std::int64_t commit_unix_us = 0;
  std::vector<core::AppliedDeltas> sets;
};

/// Serializes a full engine-state image into a kSnapshot frame.
[[nodiscard]] std::string encode_snapshot(const core::EngineState& state);

/// Serializes a commit record into a kDelta frame.
[[nodiscard]] std::string encode_delta(const CommitRecord& record);

/// Parses a kSnapshot frame. Returns an empty string and fills `out` on
/// success; otherwise returns the rejection reason and leaves `out` alone.
[[nodiscard]] std::string decode_snapshot(std::string_view bytes,
                                          core::EngineState& out);

/// Parses a kDelta frame; same contract as decode_snapshot.
[[nodiscard]] std::string decode_delta(std::string_view bytes,
                                       CommitRecord& out);

/// Standard base64 (RFC 4648, with padding) for shipping frames inside
/// NDJSON string fields.
[[nodiscard]] std::string base64_encode(std::string_view bytes);

/// Strict decoder: rejects non-alphabet characters, bad length, and
/// misplaced padding. Returns false and leaves `out` alone on failure.
[[nodiscard]] bool base64_decode(std::string_view text, std::string& out);

}  // namespace insta::replica
