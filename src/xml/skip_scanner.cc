#include "xml/skip_scanner.h"

#include "xml/byte_classes.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xmlreval::xml {

const char* FindByteSimd(const char* p, size_t n, char byte) {
#if defined(__SSE2__)
  const __m128i needle = _mm_set1_epi8(byte);
  while (n >= 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle));
    if (mask != 0) return p + __builtin_ctz(static_cast<unsigned>(mask));
    p += 16;
    n -= 16;
  }
#elif defined(__aarch64__)
  const uint8x16_t needle = vdupq_n_u8(static_cast<uint8_t>(byte));
  while (n >= 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(p));
    uint8x16_t eq = vceqq_u8(v, needle);
    if (vmaxvq_u8(eq) != 0) {
      // Narrow the 16 lanes to a 64-bit nibble mask and count zeros.
      uint64_t nib = vget_lane_u64(
          vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
      return p + (__builtin_ctzll(nib) >> 2);
    }
    p += 16;
    n -= 16;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == byte) return p + i;
  }
  return nullptr;
}

TagMasks ClassifyBlockScalar(const char* p) {
  TagMasks m;
  for (int i = 0; i < 64; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    switch (p[i]) {
      case '<':
        m.lt |= bit;
        break;
      case '>':
        m.gt |= bit;
        break;
      case '/':
      case '"':
      case '\'':
        m.special |= bit;
        break;
      default:
        break;
    }
  }
  return m;
}

#if defined(__aarch64__) && !defined(__SSE2__)
namespace {
// 64 compare lanes (0x00 / 0xFF, four registers) to one bit per lane.
uint64_t NeonBits(uint8x16_t r0, uint8x16_t r1, uint8x16_t r2,
                  uint8x16_t r3) {
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  uint8x16_t s0 = vpaddq_u8(vandq_u8(r0, weights), vandq_u8(r1, weights));
  uint8x16_t s1 = vpaddq_u8(vandq_u8(r2, weights), vandq_u8(r3, weights));
  s0 = vpaddq_u8(s0, s1);
  s0 = vpaddq_u8(s0, s0);
  return vgetq_lane_u64(vreinterpretq_u64_u8(s0), 0);
}
}  // namespace
#endif

namespace {
// The body of ClassifyBlock, in this file so ScanBlocks inlines it.
inline TagMasks Classify(const char* p) {
#if defined(__SSE2__)
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i gt = _mm_set1_epi8('>');
  const __m128i slash = _mm_set1_epi8('/');
  const __m128i dquote = _mm_set1_epi8('"');
  const __m128i squote = _mm_set1_epi8('\'');
  TagMasks m;
  for (int k = 0; k < 4; ++k) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k));
    auto bits = [&](__m128i eq) {
      return static_cast<uint64_t>(
                 static_cast<uint16_t>(_mm_movemask_epi8(eq)))
             << (16 * k);
    };
    m.lt |= bits(_mm_cmpeq_epi8(v, lt));
    m.gt |= bits(_mm_cmpeq_epi8(v, gt));
    m.special |= bits(_mm_or_si128(
        _mm_cmpeq_epi8(v, slash),
        _mm_or_si128(_mm_cmpeq_epi8(v, dquote), _mm_cmpeq_epi8(v, squote))));
  }
  return m;
#elif defined(__aarch64__)
  const auto* u = reinterpret_cast<const uint8_t*>(p);
  uint8x16_t v[4];
  for (int k = 0; k < 4; ++k) v[k] = vld1q_u8(u + 16 * k);
  auto eq = [&](int k, uint8_t byte) {
    return vceqq_u8(v[k], vdupq_n_u8(byte));
  };
  auto special = [&](int k) {
    return vorrq_u8(eq(k, '/'), vorrq_u8(eq(k, '"'), eq(k, '\'')));
  };
  TagMasks m;
  m.lt = NeonBits(eq(0, '<'), eq(1, '<'), eq(2, '<'), eq(3, '<'));
  m.gt = NeonBits(eq(0, '>'), eq(1, '>'), eq(2, '>'), eq(3, '>'));
  m.special = NeonBits(special(0), special(1), special(2), special(3));
  return m;
#else
  return ClassifyBlockScalar(p);
#endif
}
}  // namespace

TagMasks ClassifyBlock(const char* p) { return Classify(p); }

namespace {
constexpr std::string_view kCDataOpen = "<![CDATA[";
constexpr ptrdiff_t kBlockBytes = 64;

// The bits strictly above the single set bit `bit` (none above bit 63).
inline uint64_t Above(uint64_t bit) { return 0 - (bit << 1); }
}  // namespace

void SkipScanner::Begin() {
  state_ = State::kContent;
  depth_ = 1;
  prefix_pos_ = 0;
  quote_ = 0;
  error_.clear();
}

SkipScanner::Result SkipScanner::Fail(std::string message) {
  error_ = std::move(message);
  return Result::kError;
}

SkipScanner::Result SkipScanner::Scan(std::string_view data,
                                      size_t* consumed) {
  const char* p = data.data();
  const char* const end = p + data.size();
  // Every return path sets *consumed from `p` first.
  auto eaten = [&] { return static_cast<size_t>(p - data.data()); };

  while (p < end) {
    switch (state_) {
      case State::kContent: {
        // The hot state: everything between markup is irrelevant. Whole
        // windows first, then one SIMD sweep to the next '<'.
        bool done = false;
        p = ScanBlocks(p, end, &done);
        if (done) {
          *consumed = eaten();
          return Result::kDone;
        }
        if (state_ != State::kContent) break;
        const char* lt = FindByteSimd(p, static_cast<size_t>(end - p), '<');
        if (lt == nullptr) {
          p = end;
          break;
        }
        p = lt + 1;
        state_ = State::kLt;
        break;
      }
      case State::kLt: {
        char c = *p++;
        if (c == '/') {
          state_ = State::kEndTagName;
        } else if (c == '!') {
          state_ = State::kBang;
        } else if (c == '?') {
          state_ = State::kPi;
        } else if (IsNameStart(c)) {
          state_ = State::kStartTag;
        } else {
          *consumed = eaten();
          return Fail("expected XML name");
        }
        break;
      }
      case State::kBang: {
        char c = *p++;
        if (c == '-') {
          state_ = State::kBangDash;
        } else if (c == '[') {
          state_ = State::kCDataPrefix;
          prefix_pos_ = 3;  // "<![" already matched
        } else {
          *consumed = eaten();
          return Fail("expected XML name");
        }
        break;
      }
      case State::kBangDash: {
        if (*p++ != '-') {
          *consumed = eaten();
          return Fail("expected XML name");
        }
        state_ = State::kComment;
        break;
      }
      case State::kCDataPrefix: {
        if (*p++ != kCDataOpen[prefix_pos_]) {
          *consumed = eaten();
          return Fail("expected XML name");
        }
        if (++prefix_pos_ == kCDataOpen.size()) state_ = State::kCData;
        break;
      }
      case State::kComment: {
        const char* dash = FindByteSimd(p, static_cast<size_t>(end - p), '-');
        if (dash == nullptr) {
          p = end;
          break;
        }
        p = dash + 1;
        state_ = State::kCommentDash;
        break;
      }
      case State::kCommentDash: {
        state_ = (*p++ == '-') ? State::kCommentDashDash : State::kComment;
        break;
      }
      case State::kCommentDashDash: {
        if (*p++ != '>') {
          *consumed = eaten();
          return Fail("'--' not allowed inside comment");
        }
        state_ = State::kContent;
        break;
      }
      case State::kCData: {
        const char* br = FindByteSimd(p, static_cast<size_t>(end - p), ']');
        if (br == nullptr) {
          p = end;
          break;
        }
        p = br + 1;
        state_ = State::kCDataBracket;
        break;
      }
      case State::kCDataBracket: {
        state_ = (*p++ == ']') ? State::kCDataBracketBracket : State::kCData;
        break;
      }
      case State::kCDataBracketBracket: {
        char c = *p++;
        if (c == '>') {
          state_ = State::kContent;
        } else if (c != ']') {  // "]]]" keeps the two-bracket window open
          state_ = State::kCData;
        }
        break;
      }
      case State::kPi: {
        const char* q = FindByteSimd(p, static_cast<size_t>(end - p), '?');
        if (q == nullptr) {
          p = end;
          break;
        }
        p = q + 1;
        state_ = State::kPiQ;
        break;
      }
      case State::kPiQ: {
        char c = *p++;
        if (c == '>') {
          state_ = State::kContent;
        } else if (c != '?') {
          state_ = State::kPi;
        }
        break;
      }
      case State::kStartTag: {
        char c = *p++;
        if (c == '>') {
          ++depth_;
          state_ = State::kContent;
        } else if (c == '"' || c == '\'') {
          quote_ = c;
          state_ = State::kStartTagQuote;
        } else if (c == '/') {
          state_ = State::kStartTagSlash;
        } else if (c == '<') {
          *consumed = eaten();
          return Fail("'<' not allowed inside a start tag");
        }
        break;
      }
      case State::kStartTagQuote: {
        const char* q =
            FindByteSimd(p, static_cast<size_t>(end - p), quote_);
        const size_t span =
            q == nullptr ? static_cast<size_t>(end - p)
                         : static_cast<size_t>(q - p);
        if (const char* lt = FindByteSimd(p, span, '<')) {
          p = lt + 1;  // where kStartTag stops on '<': chunking-independent
          *consumed = eaten();
          return Fail("'<' not allowed in attribute value");
        }
        if (q == nullptr) {
          p = end;
          break;
        }
        p = q + 1;
        state_ = State::kStartTag;
        break;
      }
      case State::kStartTagSlash: {
        if (*p++ != '>') {
          *consumed = eaten();
          return Fail("expected '>' after '/'");
        }
        // Self-closing: opens and closes at once — depth unchanged.
        state_ = State::kContent;
        break;
      }
      case State::kEndTagName: {
        if (!IsNameStart(*p)) {
          *consumed = eaten();
          return Fail("expected XML name");
        }
        ++p;
        state_ = State::kEndTag;
        break;
      }
      case State::kEndTag: {
        const char* gt = FindByteSimd(p, static_cast<size_t>(end - p), '>');
        if (gt == nullptr) {
          p = end;
          break;
        }
        p = gt + 1;
        state_ = State::kContent;
        if (--depth_ == 0) {
          *consumed = eaten();
          return Result::kDone;
        }
        break;
      }
    }
  }
  *consumed = eaten();
  return Result::kNeedMore;
}

const char* SkipScanner::ScanBlocks(const char* p, const char* const end,
                                    bool* done) {
  while (end - p >= kBlockBytes) {
    const TagMasks m = Classify(p);
    ptrdiff_t advance = kBlockBytes;
    for (uint64_t lts = m.lt; lts != 0;) {
      const unsigned lt = static_cast<unsigned>(__builtin_ctzll(lts));
      const uint64_t after_lt = Above(lts & (0 - lts));
      const uint64_t gts = m.gt & after_lt;
      if (gts == 0) {
        // The tag runs past the window: the next window starts at its
        // '<'. A tag longer than a whole window goes to the state machine.
        if (lt == 0) {
          state_ = State::kLt;
          return p + 1;
        }
        advance = lt;
        break;
      }
      const unsigned gt = static_cast<unsigned>(__builtin_ctzll(gts));
      const uint64_t gt_bit = gts & (0 - gts);
      const uint64_t inside = after_lt & (gt_bit - 1);
      const uint64_t special = m.special & inside;
      const char c = p[lt + 1];
      if (c == '/' && IsNameStart(p[lt + 2])) {
        // kEndTagName, then kEndTag's sweep to the first '>'.
        if (--depth_ == 0) {
          *done = true;
          return p + gt + 1;
        }
      } else if (IsNameStart(c) && (m.lt & inside) == 0 &&
                 (special == 0 ||
                  (special == gt_bit >> 1 && p[gt - 1] == '/'))) {
        // kStartTag without quotes: '>' opens an element, "/>" does not.
        if (special == 0) ++depth_;
      } else {
        state_ = State::kLt;
        return p + lt + 1;
      }
      lts &= Above(gt_bit);
    }
    p += advance;
  }
  return p;
}

}  // namespace xmlreval::xml
