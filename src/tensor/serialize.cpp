#include "clado/tensor/serialize.h"

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "clado/fault/fault.h"

namespace clado::tensor {

namespace {

constexpr std::uint32_t kMagic = 0x434C4144;  // "CLAD"
constexpr std::uint32_t kVersionV1 = 1;       // legacy: no checksum, direct write
constexpr std::uint32_t kVersion = 2;         // CRC32 payload checksum, atomic rename

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("state dict: truncated file");
  return v;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Serializes the entry payload (count + per-entry records) shared by both
/// container versions.
std::string encode_payload(const StateDict& dict) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, static_cast<std::uint64_t>(dict.size()));
  for (const auto& [name, tensor] : dict) {
    write_pod(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(os, static_cast<std::uint32_t>(tensor.dim()));
    for (std::int64_t d : tensor.shape()) write_pod(os, static_cast<std::int64_t>(d));
    os.write(reinterpret_cast<const char*>(tensor.data()),
             static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  return os.str();
}

StateDict decode_payload(std::istream& is, const std::string& path) {
  const auto count = read_pod<std::uint64_t>(is);
  StateDict dict;
  for (std::uint64_t e = 0; e < count; ++e) {
    const auto name_len = read_pod<std::uint32_t>(is);
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    const auto rank = read_pod<std::uint32_t>(is);
    Shape shape(rank);
    for (auto& d : shape) d = read_pod<std::int64_t>(is);
    Tensor t(shape);
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    if (!is) throw std::runtime_error("load_state_dict: truncated tensor in " + path);
    dict.emplace(std::move(name), std::move(t));
  }
  return dict;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < len; ++i) c = crc_table()[(c ^ bytes[i]) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

const char* load_status_name(LoadStatus status) {
  switch (status) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kMissing: return "missing";
    case LoadStatus::kCorrupt: return "corrupt";
    case LoadStatus::kVersionMismatch: return "version_mismatch";
  }
  return "unknown";
}

void save_state_dict(const StateDict& dict, const std::string& path) {
  clado::fault::maybe_throw(clado::fault::Site::kIoWrite,
                            "save_state_dict: injected write failure for " + path);
  const std::string payload = encode_payload(dict);
  const std::uint32_t checksum = crc32(payload.data(), payload.size());

  // Temp-file + rename: readers only ever observe the old complete file or
  // the new complete file, never a half-written one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("save_state_dict: cannot open " + tmp);
    write_pod(os, kMagic);
    write_pod(os, kVersion);
    write_pod(os, checksum);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os) throw std::runtime_error("save_state_dict: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("save_state_dict: rename to " + path + " failed");
  }
}

LoadResult try_load_state_dict(const std::string& path) {
  LoadResult result;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    result.status = LoadStatus::kMissing;
    result.error = "cannot open " + path;
    return result;
  }
  try {
    clado::fault::maybe_throw(clado::fault::Site::kIoRead,
                              "load_state_dict: injected read failure for " + path);
    if (read_pod<std::uint32_t>(is) != kMagic) {
      result.status = LoadStatus::kCorrupt;
      result.error = "bad magic in " + path;
      return result;
    }
    const auto version = read_pod<std::uint32_t>(is);
    if (version == kVersionV1) {
      // Legacy container: no checksum to verify.
      result.dict = decode_payload(is, path);
      result.status = LoadStatus::kOk;
      return result;
    }
    if (version != kVersion) {
      result.status = LoadStatus::kVersionMismatch;
      result.error = "unsupported version " + std::to_string(version) + " in " + path;
      return result;
    }
    const auto expected = read_pod<std::uint32_t>(is);
    std::ostringstream payload_os(std::ios::binary);
    payload_os << is.rdbuf();
    const std::string payload = payload_os.str();
    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != expected) {
      result.status = LoadStatus::kCorrupt;
      result.error = "checksum mismatch in " + path;
      return result;
    }
    std::istringstream payload_is(payload, std::ios::binary);
    result.dict = decode_payload(payload_is, path);
    result.status = LoadStatus::kOk;
    return result;
  } catch (const std::exception& e) {
    result.dict.clear();
    result.status = LoadStatus::kCorrupt;
    result.error = e.what();
    return result;
  }
}

StateDict load_state_dict(const std::string& path) {
  LoadResult result = try_load_state_dict(path);
  if (!result.ok()) {
    throw std::runtime_error("load_state_dict: " + std::string(load_status_name(result.status)) +
                             ": " + result.error);
  }
  return std::move(result.dict);
}

}  // namespace clado::tensor
