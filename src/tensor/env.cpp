#include "clado/tensor/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace clado::tensor {

std::int64_t parse_int_strict(const std::string& text, std::int64_t min_value,
                              std::int64_t max_value, const std::string& what) {
  errno = 0;
  char* tail = nullptr;
  const long long v = std::strtoll(text.c_str(), &tail, 10);
  const bool parsed =
      tail != text.c_str() && tail == text.c_str() + text.size() && errno != ERANGE;
  if (!parsed || v < min_value || v > max_value) {
    throw std::invalid_argument(what + "=\"" + text + "\" is not an integer in [" +
                                std::to_string(min_value) + ", " + std::to_string(max_value) +
                                "]");
  }
  return static_cast<std::int64_t>(v);
}

double parse_double_strict(const std::string& text, const std::string& what) {
  errno = 0;
  char* tail = nullptr;
  const double v = std::strtod(text.c_str(), &tail);
  const bool parsed =
      tail != text.c_str() && tail == text.c_str() + text.size() && errno != ERANGE;
  if (!parsed || !std::isfinite(v)) {
    throw std::invalid_argument(what + "=\"" + text + "\" is not a finite number");
  }
  return v;
}

std::optional<std::int64_t> env_int_strict(const char* name, std::int64_t min_value,
                                           std::int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  try {
    return parse_int_strict(raw, min_value, max_value, name);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()) + "; unset it to use the default");
  }
}

std::optional<std::string> env_str(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

}  // namespace clado::tensor
