#include "common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace dlacep {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace dlacep
