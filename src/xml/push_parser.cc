#include "xml/push_parser.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xmlreval::xml {
namespace {

constexpr std::string_view kCDataOpen = "<![CDATA[";
constexpr std::string_view kCommentOpen = "<!--";
constexpr std::string_view kDoctypeOpen = "<!DOCTYPE";
// A numeric character reference longer than this is out of range before
// it terminates; an entity name longer than this is never one we decode.
constexpr size_t kMaxNumericRef = 16;   // "&#x" + digits
constexpr size_t kMaxEntityName = 256;  // "&" + name

// Byte classes for the tokenizer's scans: the ASCII name subset of
// IsNameStartChar / IsNameChar (common/string_util.h) and XML whitespace,
// one table load per byte instead of a chain of compares.
enum : uint8_t { kNameStart = 1, kName = 2, kSpace = 4 };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    const bool space = c == ' ' || c == '\t' || c == '\r' || c == '\n';
    classes[c] = static_cast<uint8_t>((start ? kNameStart : 0) |
                                      (name ? kName : 0) |
                                      (space ? kSpace : 0));
  }
  return classes;
}
constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

inline bool IsNameStart(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kNameStart) != 0;
}
inline bool IsName(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kName) != 0;
}
inline bool IsSpace(char c) {
  return (kByteClasses[static_cast<uint8_t>(c)] & kSpace) != 0;
}

// The first '<' or '&' in [p, p+n), or nullptr: the text scan, one pass
// with the SSE2 / NEON / scalar dispatch of FindByteSimd.
const char* FindMarkupOrReference(const char* p, size_t n) {
#if defined(__SSE2__)
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i amp = _mm_set1_epi8('&');
  while (n >= 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    int mask = _mm_movemask_epi8(
        _mm_or_si128(_mm_cmpeq_epi8(v, lt), _mm_cmpeq_epi8(v, amp)));
    if (mask != 0) return p + __builtin_ctz(static_cast<unsigned>(mask));
    p += 16;
    n -= 16;
  }
#elif defined(__aarch64__)
  const uint8x16_t lt = vdupq_n_u8('<');
  const uint8x16_t amp = vdupq_n_u8('&');
  while (n >= 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(p));
    uint8x16_t eq = vorrq_u8(vceqq_u8(v, lt), vceqq_u8(v, amp));
    if (vmaxvq_u8(eq) != 0) {
      uint64_t nib = vget_lane_u64(
          vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
      return p + (__builtin_ctzll(nib) >> 2);
    }
    p += 16;
    n -= 16;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == '<' || p[i] == '&') return p + i;
  }
  return nullptr;
}

// XML 1.0 production [2] Char: the code points a character reference may
// name.
bool IsXmlChar(uint32_t code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    *out += static_cast<char>(code);
  } else if (code < 0x800) {
    *out += static_cast<char>(0xC0 | (code >> 6));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    *out += static_cast<char>(0xE0 | (code >> 12));
    *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (code >> 18));
    *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

// The byte one of the five predefined entities stands for, or 0.
char PredefinedEntity(std::string_view name) {
  if (name == "amp") return '&';
  if (name == "lt") return '<';
  if (name == "gt") return '>';
  if (name == "quot") return '"';
  if (name == "apos") return '\'';
  return 0;
}

Status UnsupportedEntity(std::string_view name) {
  return Status::Unsupported(
      StrCat("general entity '&", name, ";' is not supported"));
}

// Whether `c` may extend the text reference `ref` ("&" plus the bytes
// read so far): nullptr if so, else the error to report at `c`.
const char* ReferenceByteError(std::string_view ref, char c) {
  if (ref.size() == 1) {
    return c == '#' || IsNameStart(c) ? nullptr : "expected XML name";
  }
  if (ref[1] == '#') {
    const bool hex_marker = ref.size() == 2 && c == 'x';
    const bool hex = ref.size() > 2 && ref[2] == 'x';
    const bool digit =
        (c >= '0' && c <= '9') ||
        (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')));
    if (!hex_marker && !digit) return "invalid character reference";
    if (ref.size() >= kMaxNumericRef) {
      return "character reference out of range";
    }
    return nullptr;
  }
  if (!IsName(c) || ref.size() >= kMaxEntityName) {
    return "unterminated entity reference";
  }
  return nullptr;
}

}  // namespace

PushParser::PushParser(SaxHandler* handler, const ParseOptions& options)
    : handler_(handler),
      skip_whitespace_text_(options.skip_whitespace_text) {
  XMLREVAL_CHECK(handler != nullptr, "PushParser requires a handler");
}

Status PushParser::ErrorAt(uint64_t offset, std::string_view message) {
  error_offset_ = offset;
  error_detail_.assign(message);
  return Status::ParseError(StrCat("XML parse error at byte ",
                                   std::to_string(offset), ": ", message));
}

void PushParser::CarryByte(char c) {
  carry_ += c;
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
}

void PushParser::CarryStart(char c) {
  carry_offset_ = Offset();
  carry_.clear();
  CarryByte(c);
}

void PushParser::CarryRest(const char* begin, Sub sub) {
  carry_offset_ = OffsetOf(begin);
  carry_.assign(begin, static_cast<size_t>(end_ - begin));
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
  p_ = end_;
  sub_ = sub;
}

std::string_view PushParser::OpenTag() const {
  const size_t n = open_ends_.size();
  const size_t begin = n > 1 ? open_ends_[n - 2] : 0;
  return std::string_view(open_names_).substr(begin, open_ends_[n - 1] - begin);
}

void PushParser::SkipCurrentSubtree() {
  XMLREVAL_CHECK(in_start_element_,
                 "SkipCurrentSubtree is only callable from StartElement");
  skip_requested_ = true;
}

Status PushParser::Feed(std::string_view chunk) {
  if (failed_) return final_status_;
  if (finished_) {
    return Status::InvalidArgument("PushParser::Feed after Finish");
  }
  bytes_fed_ += chunk.size();
  p_ = chunk.data();
  end_ = chunk.data() + chunk.size();
  end_offset_ = bytes_fed_;
  Status status = Run();
  // The chunk is the caller's: a text run still open at its end keeps its
  // bytes in the text buffer.
  if (text_view_size_ != 0) {
    text_buf_.assign(text_view_, text_view_size_);
    text_view_ = nullptr;
    text_view_size_ = 0;
  }
  p_ = end_ = nullptr;
  if (!status.ok()) {
    failed_ = true;
    final_status_ = status;
  }
  return status;
}

Status PushParser::Run() {
  while (p_ < end_) {
    if (mode_ == Mode::kSkip) {
      RETURN_IF_ERROR(RunSkip());
      continue;
    }
    switch (sub_) {
      case Sub::kText:
        RETURN_IF_ERROR(mode_ == Mode::kContent ? RunContentText()
                                                : RunMiscText());
        break;
      case Sub::kMarkupLt:
        RETURN_IF_ERROR(RunMarkupLt());
        break;
      case Sub::kMarkupBang:
        RETURN_IF_ERROR(RunMarkupBang());
        break;
      case Sub::kStartTagAcc:
        RETURN_IF_ERROR(RunStartTagAcc());
        break;
      case Sub::kEndTagAcc:
        RETURN_IF_ERROR(RunEndTagAcc());
        break;
      case Sub::kDoctypeAcc:
        RETURN_IF_ERROR(RunDoctypeAcc());
        break;
      case Sub::kCharRef:
        RETURN_IF_ERROR(RunCharRef());
        break;
      case Sub::kComment:
      case Sub::kCommentDash:
      case Sub::kCommentDashDash:
        RETURN_IF_ERROR(RunComment());
        break;
      case Sub::kCData:
      case Sub::kCDataBracket:
      case Sub::kCDataBracketBracket:
        RETURN_IF_ERROR(RunCData());
        break;
      case Sub::kPi:
      case Sub::kPiQ:
        RETURN_IF_ERROR(RunPi());
        break;
    }
  }
  return Status::OK();
}

Status PushParser::RunSkip() {
  size_t consumed = 0;
  SkipScanner::Result result =
      skipper_.Scan(std::string_view(p_, static_cast<size_t>(end_ - p_)),
                    &consumed);
  bytes_skipped_ += consumed;
  p_ += consumed;
  switch (result) {
    case SkipScanner::Result::kNeedMore:
      return Status::OK();
    case SkipScanner::Result::kDone:
      mode_ = skip_is_root_ ? Mode::kEpilog : Mode::kContent;
      sub_ = Sub::kText;
      return Status::OK();
    case SkipScanner::Result::kError:
      return Error(skipper_.error());
  }
  return Status::OK();
}

// Character data inside the root element, and the in-place dispatch of
// every tag and reference that follows it. In kContent/kText the open-tag
// stack is never empty: the root's start tag switches the mode, and
// popping the root switches to kEpilog.
Status PushParser::RunContentText() {
  while (p_ < end_ && mode_ == Mode::kContent && sub_ == Sub::kText) {
    const char* stop =
        FindMarkupOrReference(p_, static_cast<size_t>(end_ - p_));
    if (stop == nullptr) {
      AddText(p_, static_cast<size_t>(end_ - p_));
      p_ = end_;
      return Status::OK();
    }
    AddText(p_, static_cast<size_t>(stop - p_));
    p_ = stop;
    RETURN_IF_ERROR(*stop == '<' ? MarkupAt(stop) : ReferenceAt(stop));
  }
  return Status::OK();
}

// Whitespace / markup boundary in the prolog and the epilog.
Status PushParser::RunMiscText() {
  while (p_ < end_) {
    const char c = *p_;
    if (IsSpace(c)) {
      ++p_;
      continue;
    }
    if (c == '<') return MarkupAt(p_);
    return Error(mode_ == Mode::kProlog ? "expected root element"
                                        : "content after document element");
  }
  return Status::OK();
}

Status PushParser::MarkupAt(const char* lt) {
  const size_t avail = static_cast<size_t>(end_ - lt);
  if (avail >= 2) {
    const char c = lt[1];
    if (IsNameStart(c) && mode_ != Mode::kEpilog) {
      if (mode_ == Mode::kProlog) mode_ = Mode::kContent;  // the root arrives
      return StartTagAt(lt);
    }
    if (c == '/' && mode_ == Mode::kContent) return EndTagAt(lt);
    if (c == '?') {
      p_ = lt + 2;
      sub_ = Sub::kPi;
      return Status::OK();
    }
    const std::string_view rest(lt, avail);
    if (rest.starts_with(kCommentOpen)) {
      p_ = lt + kCommentOpen.size();
      sub_ = Sub::kComment;
      return Status::OK();
    }
    if (mode_ == Mode::kContent && rest.starts_with(kCDataOpen)) {
      p_ = lt + kCDataOpen.size();
      sub_ = Sub::kCData;
      return Status::OK();
    }
  }
  // Cut by the chunk's end, a DOCTYPE, or malformed: classify byte by byte.
  p_ = lt;
  CarryStart('<');
  ++p_;
  sub_ = Sub::kMarkupLt;
  return Status::OK();
}

Status PushParser::StartTagAt(const char* lt) {
  const char* gt = nullptr;
  Status parsed = ParseStartTag(lt, end_, OffsetOf(lt), &gt);
  if (parsed.ok() && gt != nullptr) {
    p_ = gt;
    return DispatchStartTag();
  }
  // Malformed or cut by the chunk's end: the tag's extent decides, as if
  // it had been carried. A '<' inside it is reported first; a cut tag is
  // carried (an error before the cut is found again once it completes).
  tag_quote_ = 0;
  RETURN_IF_ERROR(ScanStartTag(lt + 2, end_, &gt));  // lt[1] starts the name
  if (gt == nullptr) {
    error_offset_ = kNoErrorOffset;
    CarryRest(lt, Sub::kStartTagAcc);
    return Status::OK();
  }
  p_ = gt;
  return HandleStartTag(std::string_view(lt, static_cast<size_t>(gt - lt)),
                        OffsetOf(lt));
}

Status PushParser::EndTagAt(const char* lt) {
  // The common case: exactly "</" + the open element's name + ">".
  const std::string_view open = OpenTag();
  const char* gt = lt + 2 + open.size();
  if (gt < end_ && *gt == '>' &&
      std::memcmp(lt + 2, open.data(), open.size()) == 0) {
    p_ = gt + 1;
    RETURN_IF_ERROR(EmitText());
    return PopElement(std::string_view(lt + 2, open.size()));
  }
  gt = FindByteSimd(lt + 2, static_cast<size_t>(end_ - (lt + 2)), '>');
  if (gt == nullptr) {
    CarryRest(lt, Sub::kEndTagAcc);
    return Status::OK();
  }
  p_ = gt + 1;
  return HandleEndTag(std::string_view(lt, static_cast<size_t>(p_ - lt)),
                      OffsetOf(lt));
}

Status PushParser::ReferenceAt(const char* amp) {
  for (const char* s = amp + 1; s < end_; ++s) {
    if (*s == ';') {
      p_ = s + 1;
      return DecodeReference(
          std::string_view(amp + 1, static_cast<size_t>(s - amp - 1)),
          OffsetOf(amp), &TextBuffer());
    }
    const char* bad = ReferenceByteError(
        std::string_view(amp, static_cast<size_t>(s - amp)), *s);
    if (bad != nullptr) return ErrorAt(OffsetOf(s), bad);
  }
  CarryRest(amp, Sub::kCharRef);
  return Status::OK();
}

Status PushParser::ScanStartTag(const char* from, const char* end,
                                const char** gt) {
  for (const char* s = from; s < end; ++s) {
    const char c = *s;
    if (tag_quote_ != 0) {
      if (c == '<') {
        return ErrorAt(OffsetOf(s), "'<' not allowed in attribute value");
      }
      if (c == tag_quote_) tag_quote_ = 0;
    } else if (c == '>') {
      *gt = s + 1;
      return Status::OK();
    } else if (c == '<') {
      return ErrorAt(OffsetOf(s), "expected XML name");
    } else if (c == '"' || c == '\'') {
      tag_quote_ = c;
    }
  }
  *gt = nullptr;
  return Status::OK();
}

Status PushParser::RunMarkupLt() {
  const char c = *p_;
  if (c == '?') {
    ++p_;
    carry_.clear();
    sub_ = Sub::kPi;
    return Status::OK();
  }
  if (c == '!') {
    CarryByte(c);
    ++p_;
    sub_ = Sub::kMarkupBang;
    return Status::OK();
  }
  if (mode_ == Mode::kEpilog) {
    return ErrorAt(carry_offset_, "content after document element");
  }
  if (c == '/') {
    CarryByte(c);
    ++p_;
    sub_ = Sub::kEndTagAcc;
    return Status::OK();
  }
  if (IsNameStart(c)) {
    if (mode_ == Mode::kProlog) mode_ = Mode::kContent;  // the root arrives
    CarryByte(c);
    ++p_;
    tag_quote_ = 0;
    sub_ = Sub::kStartTagAcc;
    return Status::OK();
  }
  return ErrorAt(carry_offset_ + 1, "expected XML name");
}

Status PushParser::RunMarkupBang() {
  auto bad = [this] {
    return mode_ == Mode::kEpilog
               ? ErrorAt(carry_offset_, "content after document element")
               : ErrorAt(carry_offset_ + 1, "expected XML name");
  };
  while (p_ < end_) {
    const char c = *p_;
    if (carry_.size() == 2) {  // "<!"
      if (c == '-' || (c == '[' && mode_ != Mode::kEpilog) ||
          (c == 'D' && mode_ == Mode::kProlog)) {
        CarryByte(c);
        ++p_;
        continue;
      }
      return bad();
    }
    if (carry_[2] == '-') {  // "<!-"
      if (c != '-') return bad();
      ++p_;
      carry_.clear();
      sub_ = Sub::kComment;
      return Status::OK();
    }
    if (carry_[2] == '[') {  // matching "<![CDATA["
      if (c != kCDataOpen[carry_.size()]) return bad();
      CarryByte(c);
      ++p_;
      if (carry_.size() == kCDataOpen.size()) {
        if (mode_ != Mode::kContent) {
          return ErrorAt(carry_offset_, "CDATA outside root element");
        }
        carry_.clear();
        sub_ = Sub::kCData;
        return Status::OK();
      }
      continue;
    }
    // Matching "<!DOCTYPE" (prolog only; 'D' is rejected above elsewhere).
    if (c != kDoctypeOpen[carry_.size()]) return bad();
    CarryByte(c);
    ++p_;
    if (carry_.size() == kDoctypeOpen.size()) {
      doctype_quote_ = 0;
      doctype_depth_ = 0;
      sub_ = Sub::kDoctypeAcc;
      return Status::OK();
    }
  }
  return Status::OK();
}

Status PushParser::RunStartTagAcc() {
  const char* gt = nullptr;
  RETURN_IF_ERROR(ScanStartTag(p_, end_, &gt));
  const char* stop = gt != nullptr ? gt : end_;
  carry_.append(p_, static_cast<size_t>(stop - p_));
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
  p_ = stop;
  if (gt == nullptr) return Status::OK();
  Status status = HandleStartTag(carry_, carry_offset_);
  carry_.clear();
  return status;
}

Status PushParser::RunEndTagAcc() {
  const char* gt = FindByteSimd(p_, static_cast<size_t>(end_ - p_), '>');
  const char* stop = gt != nullptr ? gt + 1 : end_;
  carry_.append(p_, static_cast<size_t>(stop - p_));
  peak_carry_ = std::max<uint64_t>(peak_carry_, carry_.size());
  p_ = stop;
  if (gt == nullptr) return Status::OK();
  Status status = HandleEndTag(carry_, carry_offset_);
  carry_.clear();
  return status;
}

Status PushParser::RunDoctypeAcc() {
  while (p_ < end_) {
    const char c = *p_;
    CarryByte(c);
    ++p_;
    if (doctype_quote_ != 0) {
      if (c == doctype_quote_) doctype_quote_ = 0;
    } else if (doctype_depth_ > 0) {
      // The internal subset is scanned for bracket nesting only; quotes
      // are not special inside it.
      if (c == '[') ++doctype_depth_;
      else if (c == ']') --doctype_depth_;
    } else if (c == '[') {
      doctype_depth_ = 1;
    } else if (c == '"' || c == '\'') {
      doctype_quote_ = c;
    } else if (c == '>') {
      Status status = HandleDoctype(carry_, carry_offset_);
      carry_.clear();
      return status;
    }
  }
  return Status::OK();
}

Status PushParser::RunCharRef() {
  while (p_ < end_) {
    const char c = *p_;
    if (c == ';') {
      ++p_;
      Status status = DecodeReference(std::string_view(carry_).substr(1),
                                      carry_offset_, &TextBuffer());
      carry_.clear();
      sub_ = Sub::kText;
      return status;
    }
    const char* bad = ReferenceByteError(carry_, c);
    if (bad != nullptr) return Error(bad);
    CarryByte(c);
    ++p_;
  }
  return Status::OK();
}

Status PushParser::DecodeReference(std::string_view body, uint64_t offset,
                                   std::string* out) {
  if (body.empty()) return ErrorAt(offset + 1, "expected XML name");
  if (body[0] != '#') {
    const char c = PredefinedEntity(body);
    if (c == 0) return UnsupportedEntity(body);
    *out += c;
    return Status::OK();
  }
  const bool hex = body.size() > 1 && body[1] == 'x';
  const std::string_view digits = body.substr(hex ? 2 : 1);
  if (digits.empty()) {
    return ErrorAt(offset, "unterminated character reference");
  }
  uint32_t code = 0;
  for (char c : digits) {
    uint32_t digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else digit = 10 + (c - 'A');
    code = code * (hex ? 16 : 10) + digit;
    if (code > 0x10FFFF) {
      return ErrorAt(offset, "character reference out of range");
    }
  }
  if (!IsXmlChar(code)) return ErrorAt(offset, "invalid character reference");
  AppendUtf8(code, out);
  return Status::OK();
}

Status PushParser::RunComment() {
  while (p_ < end_) {
    if (sub_ == Sub::kComment) {
      const char* dash = FindByteSimd(p_, static_cast<size_t>(end_ - p_), '-');
      if (dash == nullptr) {
        p_ = end_;
        return Status::OK();
      }
      p_ = dash + 1;
      sub_ = Sub::kCommentDash;
    } else if (sub_ == Sub::kCommentDash) {
      sub_ = (*p_++ == '-') ? Sub::kCommentDashDash : Sub::kComment;
    } else {  // kCommentDashDash
      if (*p_++ != '>') return Error("'--' not allowed inside comment");
      sub_ = Sub::kText;
      return Status::OK();
    }
  }
  return Status::OK();
}

Status PushParser::RunCData() {
  while (p_ < end_) {
    if (sub_ == Sub::kCData) {
      const char* br = FindByteSimd(p_, static_cast<size_t>(end_ - p_), ']');
      const char* stop = br != nullptr ? br : end_;
      AddText(p_, static_cast<size_t>(stop - p_));
      p_ = stop;
      if (br == nullptr) return Status::OK();
      ++p_;  // the ']'
      sub_ = Sub::kCDataBracket;
    } else if (sub_ == Sub::kCDataBracket) {
      const char c = *p_++;
      if (c == ']') {
        sub_ = Sub::kCDataBracketBracket;
      } else {
        TextBuffer() += ']';
        TextBuffer() += c;
        sub_ = Sub::kCData;
      }
    } else {  // kCDataBracketBracket
      const char c = *p_++;
      if (c == '>') {
        sub_ = Sub::kText;
        return Status::OK();
      }
      if (c == ']') {
        // "]]]" — emit one ']' and keep the two-bracket window open.
        TextBuffer() += ']';
      } else {
        TextBuffer() += "]]";
        TextBuffer() += c;
        sub_ = Sub::kCData;
      }
    }
  }
  return Status::OK();
}

Status PushParser::RunPi() {
  while (p_ < end_) {
    if (sub_ == Sub::kPi) {
      const char* q = FindByteSimd(p_, static_cast<size_t>(end_ - p_), '?');
      if (q == nullptr) {
        p_ = end_;
        return Status::OK();
      }
      p_ = q + 1;
      sub_ = Sub::kPiQ;
    } else {  // kPiQ
      const char c = *p_++;
      if (c == '>') {
        sub_ = Sub::kText;
        return Status::OK();
      }
      if (c != '?') sub_ = Sub::kPi;
    }
  }
  return Status::OK();
}

Status PushParser::ParseStartTag(const char* lt, const char* end,
                                 uint64_t offset, const char** gt) {
  *gt = nullptr;
  const char* s = lt + 1;
  auto err = [&](std::string_view msg) {
    return ErrorAt(offset + static_cast<uint64_t>(s - lt), msg);
  };
  while (s < end && IsName(*s)) ++s;
  tag_name_ = std::string_view(lt + 1, static_cast<size_t>(s - lt - 1));
  attrs_.clear();
  attr_buf_.clear();
  decoded_.clear();
  while (true) {
    while (s < end && IsSpace(*s)) ++s;
    if (s == end) return Status::OK();
    if (*s == '>' || *s == '/') {
      self_closing_ = *s == '/';
      if (self_closing_) {
        ++s;
        if (s == end) return Status::OK();
        if (*s != '>') return err("expected XML name");
      }
      ++s;  // '>'
      // Views into attr_buf_ are taken once it has stopped growing.
      for (const DecodedValue& d : decoded_) {
        attrs_[d.attr].value =
            std::string_view(attr_buf_).substr(d.begin, d.end - d.begin);
      }
      *gt = s;
      return Status::OK();
    }
    if (!IsNameStart(*s)) return err("expected XML name");
    const char* attr_name = s;
    while (s < end && IsName(*s)) ++s;
    const std::string_view name(attr_name, static_cast<size_t>(s - attr_name));
    while (s < end && IsSpace(*s)) ++s;
    if (s == end) return Status::OK();
    if (*s != '=') return err("expected '=' after attribute name");
    ++s;
    while (s < end && IsSpace(*s)) ++s;
    if (s == end) return Status::OK();
    if (*s != '"' && *s != '\'') return err("expected quoted attribute value");
    const char quote = *s++;
    const char* value = s;
    bool has_reference = false;
    while (s < end && *s != quote) {
      if (*s == '<') return err("'<' not allowed in attribute value");
      has_reference |= *s == '&';
      ++s;
    }
    if (s == end) return Status::OK();
    if (has_reference) {
      // Decoded into attr_buf_; the view is set when the tag completes.
      const size_t begin = attr_buf_.size();
      for (const char* v = value; v < s;) {
        const char* amp = std::find(v, s, '&');
        attr_buf_.append(v, static_cast<size_t>(amp - v));
        if (amp == s) break;
        const char* r = amp + 1;
        for (; *r != ';'; ++r) {  // the closing quote ends every reference
          const char* bad = ReferenceByteError(
              std::string_view(amp, static_cast<size_t>(r - amp)), *r);
          if (bad != nullptr) return ErrorAt(offset + (r - lt), bad);
        }
        RETURN_IF_ERROR(DecodeReference(
            std::string_view(amp + 1, static_cast<size_t>(r - amp - 1)),
            offset + (amp - lt), &attr_buf_));
        v = r + 1;
      }
      decoded_.push_back(DecodedValue{attrs_.size(), begin, attr_buf_.size()});
    }
    const std::string_view raw(value, static_cast<size_t>(s - value));
    ++s;  // closing quote
    for (const SaxAttribute& existing : attrs_) {
      if (existing.name == name) {
        return err(StrCat("duplicate attribute '", name, "'"));
      }
    }
    attrs_.push_back(SaxAttribute{name, raw});
  }
}

Status PushParser::HandleStartTag(std::string_view tag, uint64_t offset) {
  // `tag` runs from '<' through the first '>' outside quotes; quotes are
  // balanced and no '<' follows the first byte (ScanStartTag).
  const char* gt = nullptr;
  RETURN_IF_ERROR(ParseStartTag(tag.data(), tag.data() + tag.size(), offset,
                                &gt));
  if (gt == nullptr) {
    return ErrorAt(offset + tag.size(), "unterminated start tag");
  }
  return DispatchStartTag();
}

Status PushParser::DispatchStartTag() {
  const std::string_view name = tag_name_;
  const bool self_closing = self_closing_;
  RETURN_IF_ERROR(EmitText());
  in_start_element_ = true;
  skip_requested_ = false;
  Status handled = handler_->StartElement(name, attrs_);
  in_start_element_ = false;
  RETURN_IF_ERROR(handled);
  const bool skip = skip_requested_;
  skip_requested_ = false;
  sub_ = Sub::kText;

  if (self_closing) {
    // A skipped self-closing element has no subtree: only its EndElement
    // is suppressed.
    if (!skip) RETURN_IF_ERROR(handler_->EndElement(name));
    if (open_ends_.empty()) mode_ = Mode::kEpilog;  // it was the root
    return Status::OK();
  }
  if (skip) {
    skip_is_root_ = open_ends_.empty();
    skipper_.Begin();
    mode_ = Mode::kSkip;
    return Status::OK();
  }
  open_names_.append(name);
  open_ends_.push_back(static_cast<uint32_t>(open_names_.size()));
  return Status::OK();
}

Status PushParser::HandleEndTag(std::string_view tag, uint64_t offset) {
  // `tag` is "</" ... ">", '>' being its only '>'.
  size_t i = 2;
  auto err = [&](std::string_view msg) { return ErrorAt(offset + i, msg); };
  if (i >= tag.size() || !IsNameStart(tag[i])) {
    return err("expected XML name");
  }
  while (i < tag.size() && IsName(tag[i])) ++i;
  const std::string_view name = tag.substr(2, i - 2);
  while (i < tag.size() && IsSpace(tag[i])) ++i;
  if (i + 1 != tag.size() || tag[i] != '>') return err("expected '>'");

  RETURN_IF_ERROR(EmitText());
  if (open_ends_.empty()) {
    return ErrorAt(offset, "unmatched closing tag");
  }
  if (OpenTag() != name) {
    return ErrorAt(offset,
                   StrCat("mismatched closing tag '</", name,
                          ">'; open element is '", OpenTag(), "'"));
  }
  return PopElement(name);
}

Status PushParser::PopElement(std::string_view name) {
  RETURN_IF_ERROR(handler_->EndElement(name));
  open_ends_.pop_back();
  open_names_.resize(open_ends_.empty() ? 0 : open_ends_.back());
  if (open_ends_.empty()) mode_ = Mode::kEpilog;
  sub_ = Sub::kText;
  return Status::OK();
}

Status PushParser::HandleDoctype(std::string_view text, uint64_t offset) {
  // `text` is "<!DOCTYPE" ... ">", quotes and brackets balanced.
  size_t i = kDoctypeOpen.size();
  auto err = [&](std::string_view msg) { return ErrorAt(offset + i, msg); };
  auto skip_ws = [&] {
    while (i < text.size() && IsSpace(text[i])) ++i;
  };
  auto skip_literal = [&]() -> Status {
    if (i >= text.size() || (text[i] != '"' && text[i] != '\'')) {
      return err("expected quoted literal");
    }
    const char quote = text[i++];
    while (i < text.size() && text[i] != quote) ++i;
    if (i >= text.size()) return err("unterminated literal");
    ++i;
    return Status::OK();
  };

  skip_ws();
  if (i >= text.size() || !IsNameStart(text[i])) {
    return err("expected XML name");
  }
  const size_t name_begin = i;
  while (i < text.size() && IsName(text[i])) ++i;
  const std::string_view name = text.substr(name_begin, i - name_begin);
  skip_ws();
  if (text.substr(i, 6) == "SYSTEM") {
    i += 6;
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
  } else if (text.substr(i, 6) == "PUBLIC") {
    i += 6;
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
    skip_ws();
    RETURN_IF_ERROR(skip_literal());
  }
  skip_ws();
  std::string_view subset;
  if (i < text.size() && text[i] == '[') {
    const size_t begin = ++i;
    int depth = 1;
    while (i < text.size()) {
      if (text[i] == '[') ++depth;
      if (text[i] == ']' && --depth == 0) break;
      ++i;
    }
    if (i >= text.size()) return err("unterminated DOCTYPE subset");
    subset = text.substr(begin, i - begin);
    ++i;  // ']'
  }
  skip_ws();
  if (i + 1 != text.size() || text[i] != '>') {
    return err("expected '>' after DOCTYPE");
  }
  RETURN_IF_ERROR(handler_->Doctype(name, subset));
  sub_ = Sub::kText;
  return Status::OK();
}

void PushParser::AddText(const char* data, size_t n) {
  if (n == 0) return;
  if (!text_buf_.empty()) {
    text_buf_.append(data, n);
  } else if (text_view_size_ == 0) {
    text_view_ = data;
    text_view_size_ = n;
  } else if (text_view_ + text_view_size_ == data) {
    text_view_size_ += n;
  } else {
    TextBuffer().append(data, n);
  }
}

std::string& PushParser::TextBuffer() {
  // Bytes that are not in the chunk (decoded references, CDATA brackets)
  // are about to join the run: move its in-chunk part into the buffer.
  if (text_view_size_ != 0) {
    text_buf_.append(text_view_, text_view_size_);
    text_view_ = nullptr;
    text_view_size_ = 0;
  }
  return text_buf_;
}

Status PushParser::EmitText() {
  const std::string_view text =
      text_view_size_ != 0 ? std::string_view(text_view_, text_view_size_)
                           : std::string_view(text_buf_);
  if (text.empty()) return Status::OK();
  text_view_ = nullptr;
  text_view_size_ = 0;
  Status status = Status::OK();
  if (!skip_whitespace_text_ || !IsAllXmlWhitespace(text)) {
    status = handler_->Characters(text);
  }
  text_buf_.clear();
  return status;
}

Status PushParser::Finish() {
  if (failed_ || finished_) return final_status_;
  finished_ = true;
  const uint64_t at = bytes_fed_;
  Status status = Status::OK();
  if (mode_ == Mode::kSkip) {
    status = ErrorAt(at, "unexpected end of input inside skipped subtree");
  } else {
    switch (sub_) {
      case Sub::kText:
        if (mode_ == Mode::kProlog) {
          status = ErrorAt(at, "expected root element");
        } else if (mode_ == Mode::kContent) {
          status = ErrorAt(at, StrCat("unexpected end of input inside '",
                                      OpenTag(), "'"));
        }
        // kEpilog: complete document.
        break;
      case Sub::kMarkupLt:
      case Sub::kMarkupBang:
        status = ErrorAt(at, "expected XML name");
        break;
      case Sub::kStartTagAcc:
        status = ErrorAt(at, tag_quote_ != 0 ? "unterminated attribute value"
                                             : "unterminated start tag");
        break;
      case Sub::kEndTagAcc:
        status = ErrorAt(at, carry_.size() <= 2 ? "expected XML name"
                                                : "expected '>'");
        break;
      case Sub::kDoctypeAcc:
        status = ErrorAt(at, doctype_depth_ > 0
                                 ? "unterminated DOCTYPE subset"
                                 : doctype_quote_ != 0
                                       ? "unterminated literal"
                                       : "expected '>' after DOCTYPE");
        break;
      case Sub::kCharRef:
        status = ErrorAt(at, carry_.size() < 2 ? "expected XML name"
                             : carry_[1] == '#'
                                 ? "unterminated character reference"
                                 : "unterminated entity reference");
        break;
      case Sub::kComment:
      case Sub::kCommentDash:
      case Sub::kCommentDashDash:
        status = ErrorAt(at, "unterminated comment");
        break;
      case Sub::kCData:
      case Sub::kCDataBracket:
      case Sub::kCDataBracketBracket:
        status = ErrorAt(at, "unterminated CDATA");
        break;
      case Sub::kPi:
      case Sub::kPiQ:
        status = ErrorAt(at, "unterminated processing instruction");
        break;
    }
  }
  if (!status.ok()) failed_ = true;
  final_status_ = status;
  return final_status_;
}

}  // namespace xmlreval::xml
