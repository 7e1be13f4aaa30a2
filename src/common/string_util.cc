#include "common/string_util.h"

#include <cctype>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xmlreval {

bool IsAllXmlWhitespace(std::string_view s) {
  const char* p = s.data();
  size_t n = s.size();
#if defined(__SSE2__)
  const __m128i sp = _mm_set1_epi8(' ');
  const __m128i tb = _mm_set1_epi8('\t');
  const __m128i cr = _mm_set1_epi8('\r');
  const __m128i lf = _mm_set1_epi8('\n');
  while (n >= 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i ws = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, sp), _mm_cmpeq_epi8(v, tb)),
        _mm_or_si128(_mm_cmpeq_epi8(v, cr), _mm_cmpeq_epi8(v, lf)));
    if (_mm_movemask_epi8(ws) != 0xFFFF) return false;
    p += 16;
    n -= 16;
  }
#elif defined(__aarch64__)
  const uint8x16_t sp = vdupq_n_u8(' ');
  const uint8x16_t tb = vdupq_n_u8('\t');
  const uint8x16_t cr = vdupq_n_u8('\r');
  const uint8x16_t lf = vdupq_n_u8('\n');
  while (n >= 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(p));
    uint8x16_t ws = vorrq_u8(vorrq_u8(vceqq_u8(v, sp), vceqq_u8(v, tb)),
                             vorrq_u8(vceqq_u8(v, cr), vceqq_u8(v, lf)));
    if (vminvq_u8(ws) != 0xFF) return false;
    p += 16;
    n -= 16;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    if (!IsXmlWhitespace(p[i])) return false;
  }
  return true;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsXmlWhitespace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsXmlWhitespace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> SplitString(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool IsValidXmlName(std::string_view s) {
  if (s.empty() || !IsNameStartChar(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (!IsNameChar(s[i])) return false;
  }
  return true;
}

std::string EscapeXmlText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty integer literal");
  bool negative = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    negative = (s[0] == '-');
    i = 1;
  }
  if (i == s.size()) return Status::ParseError("sign without digits");
  int64_t value = 0;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c < '0' || c > '9') {
      return Status::ParseError("invalid digit in integer literal: '" +
                                std::string(s) + "'");
    }
    int digit = c - '0';
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
      return Status::ParseError("integer literal out of range: '" +
                                std::string(s) + "'");
    }
    value = value * 10 + digit;
  }
  return negative ? -value : value;
}

Result<int64_t> ParseDecimalScaled(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return Status::ParseError("empty decimal literal");
  bool negative = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    negative = (s[0] == '-');
    i = 1;
  }
  constexpr int64_t kScale = 1000000000;  // 10^9
  int64_t int_part = 0;
  bool any_digits = false;
  for (; i < s.size() && s[i] != '.'; ++i) {
    char c = s[i];
    if (c < '0' || c > '9') {
      return Status::ParseError("invalid digit in decimal literal: '" +
                                std::string(s) + "'");
    }
    any_digits = true;
    int digit = c - '0';
    if (int_part > (std::numeric_limits<int64_t>::max() / kScale - digit) / 10) {
      return Status::ParseError("decimal literal out of range: '" +
                                std::string(s) + "'");
    }
    int_part = int_part * 10 + digit;
  }
  int64_t frac = 0;
  int64_t frac_scale = kScale;
  if (i < s.size() && s[i] == '.') {
    ++i;
    for (; i < s.size(); ++i) {
      char c = s[i];
      if (c < '0' || c > '9') {
        return Status::ParseError("invalid digit in decimal literal: '" +
                                  std::string(s) + "'");
      }
      any_digits = true;
      if (frac_scale > 1) {
        frac_scale /= 10;
        frac += (c - '0') * frac_scale;
      }
      // Digits beyond 9 fractional places are truncated; facet values in
      // schemas never need more precision than that.
    }
  }
  if (!any_digits) {
    return Status::ParseError("decimal literal without digits: '" +
                              std::string(s) + "'");
  }
  int64_t value = int_part * kScale + frac;
  return negative ? -value : value;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace xmlreval
