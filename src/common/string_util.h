// Small string helpers shared by the query-language parser and CSV I/O.

#ifndef DLACEP_COMMON_STRING_UTIL_H_
#define DLACEP_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dlacep {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace dlacep

#endif  // DLACEP_COMMON_STRING_UTIL_H_
