#ifndef SC_COMMON_STR_UTIL_H_
#define SC_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace sc {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sc

#endif  // SC_COMMON_STR_UTIL_H_
