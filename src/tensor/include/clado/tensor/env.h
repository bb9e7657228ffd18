// Strict parsing of numbers from outside the program: every CLADO_* integer
// knob (CLADO_NUM_THREADS, CLADO_BENCH_SCALE, ...) and the numeric
// command-line flags of the tools and benches.
//
// Policy: the whole text must parse as a number inside the caller's range,
// or the function throws; for environment variables, unset or empty means
// "use the default" and returns nullopt. Silent fallback on garbage (the old
// std::atoi pattern) hid typos like CLADO_BENCH_SCALE=3x, which quietly ran
// a different experiment than the one asked for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace clado::tensor {

/// Parses `text` as a base-10 integer in [min_value, max_value]. Text that
/// does not parse completely (empty, trailing junk), overflows, or falls
/// outside the range → std::invalid_argument naming `what`, the offending
/// text, and the accepted range.
std::int64_t parse_int_strict(const std::string& text, std::int64_t min_value,
                              std::int64_t max_value, const std::string& what);

/// Parses `text` as a finite decimal number. Text that does not parse
/// completely, NaN, an infinity, or a value out of double range →
/// std::invalid_argument naming `what` and the offending text.
double parse_double_strict(const std::string& text, const std::string& what);

/// Reads env var `name` as parse_int_strict(value, min_value, max_value).
/// Unset or empty → nullopt. Anything else that does not parse →
/// std::invalid_argument naming the variable, the offending text, and the
/// accepted range.
std::optional<std::int64_t> env_int_strict(const char* name, std::int64_t min_value,
                                           std::int64_t max_value);

/// Reads env var `name` as a string. Unset or empty → nullopt (an empty
/// value is indistinguishable from unset on every shell that matters, so
/// treating it as "use the default" keeps behavior predictable). This is
/// the sanctioned accessor for path-valued CLADO_* knobs; calling
/// std::getenv directly in src//tools/ is a lint violation
/// (env-discipline).
std::optional<std::string> env_str(const char* name);

}  // namespace clado::tensor
