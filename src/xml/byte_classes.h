// Byte classes shared by the tokenizer (push_parser.cc) and the skip
// scanner (skip_scanner.cc): one 256-entry table built at compile time from
// IsNameStartChar / IsNameChar / IsXmlWhitespace (common/string_util.h),
// so the two byte-level readers cannot disagree on what starts a name.
// One table load per byte instead of a chain of compares. Internal to
// src/xml.

#ifndef XMLREVAL_XML_BYTE_CLASSES_H_
#define XMLREVAL_XML_BYTE_CLASSES_H_

#include <array>
#include <cstdint>

#include "common/string_util.h"

namespace xmlreval::xml {

enum : uint8_t { kNameStart = 1, kName = 2, kSpace = 4 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    classes[i] = static_cast<uint8_t>((IsNameStartChar(c) ? kNameStart : 0) |
                                      (IsNameChar(c) ? kName : 0) |
                                      (IsXmlWhitespace(c) ? kSpace : 0));
  }
  return classes;
}
inline constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

inline bool IsNameStart(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kNameStart) != 0;
}
inline bool IsName(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kName) != 0;
}
inline bool IsSpace(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kSpace) != 0;
}

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_BYTE_CLASSES_H_
