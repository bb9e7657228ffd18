// Binary (de)serialization of tensors and named tensor maps.
//
// Used by the model zoo to cache trained weights under artifacts/ and by
// the sensitivity sweep to checkpoint partial results, so that benchmark
// binaries do not retrain or re-measure on every invocation. The format is
// a tiny self-describing container: magic, version, payload CRC32, entry
// count, then per entry (name, rank, dims, raw float32 payload).
// Little-endian only — this repository targets a single machine, not an
// interchange format.
//
// Durability (format v2):
//   * the header carries a CRC32 over the payload (everything after the
//     header), so a truncated or bit-flipped file is rejected instead of
//     silently loaded;
//   * save_state_dict writes to "<path>.tmp", flushes, and renames onto
//     `path` — a crash mid-write leaves the previous file intact;
//   * v1 files (no checksum) written by older builds still load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "clado/tensor/tensor.h"

namespace clado::tensor {

using StateDict = std::map<std::string, Tensor>;

/// Writes the dict to `path` atomically (temp file + rename) with a CRC32
/// payload checksum. Throws std::runtime_error on I/O failure; the
/// destination is either the complete new file or untouched.
void save_state_dict(const StateDict& dict, const std::string& path);

/// Reads a dict previously written by save_state_dict (v2 with checksum
/// verification, or a legacy v1 file).
/// Throws std::runtime_error on I/O failure or a malformed file.
StateDict load_state_dict(const std::string& path);

/// Non-throwing probe outcome for load attempts whose callers want to
/// distinguish "retrain/recompute" (missing) from "discard the bad
/// artifact" (corrupt / future version).
enum class LoadStatus {
  kOk,               ///< dict is valid
  kMissing,          ///< file absent or unreadable
  kCorrupt,          ///< bad magic, truncation, or checksum mismatch
  kVersionMismatch,  ///< container version newer than this build reads
};

const char* load_status_name(LoadStatus status);

struct LoadResult {
  LoadStatus status = LoadStatus::kMissing;
  StateDict dict;     ///< populated only when status == kOk
  std::string error;  ///< human-readable detail for non-kOk outcomes
  bool ok() const { return status == LoadStatus::kOk; }
};

/// Like load_state_dict but never throws on missing/corrupt/unsupported
/// files; I/O faults injected via clado::fault surface as kCorrupt.
LoadResult try_load_state_dict(const std::string& path);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes,
/// continuing from `seed` (pass 0 to start). Exposed for the tests that
/// hand-craft corrupt artifacts.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace clado::tensor
