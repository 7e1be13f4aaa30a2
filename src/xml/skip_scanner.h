// Raw-byte subtree skipper — the paper's R_sub subsumption, realized at
// the byte level.
//
// When a streaming cast enters a (source-type, target-type) pair with
// s ⊑ t (Definition 4), every document fragment valid under s is valid
// under t, so the subtree's CONTENT cannot affect the verdict. The only
// remaining obligations are structural: find the matching end tag without
// being fooled by markup that hides '<' and '>' (comments, CDATA, PIs,
// quoted attribute values). SkipScanner does exactly that — no symbol
// interning, no DFA steps, no attribute or text processing, no entity
// decoding.
//
// Hot path: a 64-byte block classifier. While the scanner is between
// markup and at least 64 bytes of the chunk remain, one window is
// classified into three bitmasks — '<', '>', and "special" ('/', '"',
// '\'') — by ClassifyBlock (SSE2 / NEON, with ClassifyBlockScalar as the
// portable build and the tests' reference). The '<' bits are walked in
// order, and each tag whose '>' lies in the window is settled by mask
// arithmetic alone:
//   </n…>    the byte after '/' starts a name: depth - 1 (0 ⇒ done);
//   <n…>     no '<' and no special byte before its '>': depth + 1;
//   <n…/>    the only special byte is the '/' just before '>': no change.
// Everything else — a quote inside a tag, "<!", "<?", a malformed tag, a
// tag that does not fit in a window starting at its '<', fewer than 64
// bytes left — is handed, with the scanner just past its '<', to the
// byte-at-a-time state machine below, which owns chunk boundaries, rare
// constructs and every error. So both paths apply the same checks, and
// a result never depends on how the input is chunked.
//
// The scanner is resumable: Scan() consumes as much of the given chunk as
// it can and returns kNeedMore when the subtree extends past it, carrying
// ZERO buffered bytes — all cross-chunk state is the (state, depth,
// literal-prefix-position) triple, so skipping is O(1) memory regardless
// of subtree or chunk size.
//
// Scope: the scanner checks the structural well-formedness a skip must
// not silently forgive (tag nesting balance, comment '--' rule, quote
// termination, '<' in attribute values) but does NOT re-verify tag-name
// matching, duplicate attributes, or entity references inside the skipped
// region — the cast precondition says the document was already parsed
// valid under the source schema at ingestion, and those checks are
// byte-local anyway (truncation, the realistic mid-stream failure, is
// always caught as kNeedMore at end of input).

#ifndef XMLREVAL_XML_SKIP_SCANNER_H_
#define XMLREVAL_XML_SKIP_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace xmlreval::xml {

/// Finds the first occurrence of `byte` in [p, p+n) with the SSE2 / NEON /
/// scalar dispatch used across the hot paths; nullptr when absent.
/// Exposed for the parser's text scan and for tests.
const char* FindByteSimd(const char* p, size_t n, char byte);

/// One 64-byte window as bitmasks: bit i is set when p[i] is '<' (lt),
/// '>' (gt), or one of '/', '"', '\'' (special).
struct TagMasks {
  uint64_t lt = 0;
  uint64_t gt = 0;
  uint64_t special = 0;
};

/// Classifies the 64 bytes at `p` (all must be readable) with the SSE2 /
/// NEON / scalar dispatch. Exposed for tests.
TagMasks ClassifyBlock(const char* p);

/// The portable byte-at-a-time classifier; the reference for
/// ClassifyBlock. Exposed for tests.
TagMasks ClassifyBlockScalar(const char* p);

class SkipScanner {
 public:
  enum class Result : uint8_t {
    kNeedMore,  // chunk exhausted, subtree still open — feed more bytes
    kDone,      // matching end tag consumed; `consumed` stops just past '>'
    kError,     // structurally malformed markup; see error()
  };

  /// Arms the scanner immediately after the '>' of a (non-self-closing)
  /// start tag: depth 1, content state. Reusable — Begin() resets fully.
  void Begin();

  /// Consumes bytes from `data` until the subtree closes, the chunk ends,
  /// or an error is found. `*consumed` is always set to the number of
  /// bytes eaten from this chunk (on kDone, the terminating '>' is the
  /// last byte consumed; the rest of the chunk is the caller's).
  Result Scan(std::string_view data, size_t* consumed);

  /// Open-element depth still pending (1 = only the skipped element).
  uint64_t depth() const { return depth_; }

  const std::string& error() const { return error_; }

 private:
  enum class State : uint8_t {
    kContent,             // between markup: block path, then SIMD '<' scan
    kLt,                  // just saw '<'
    kBang,                // "<!"
    kBangDash,            // "<!-"
    kCDataPrefix,         // matching "<![CDATA[" byte by byte
    kComment,             // inside "<!--": scan for '-'
    kCommentDash,         // comment, saw '-'
    kCommentDashDash,     // comment, saw "--": only '>' is legal
    kCData,               // inside CDATA: scan for ']'
    kCDataBracket,        // CDATA, saw ']'
    kCDataBracketBracket, // CDATA, saw "]]" (']' keeps the window sliding)
    kPi,                  // inside "<?": scan for '?'
    kPiQ,                 // PI, saw '?'
    kStartTag,            // inside a start tag, outside quotes
    kStartTagQuote,       // inside a quoted attribute value
    kStartTagSlash,       // start tag, saw '/': next must be '>'
    kEndTagName,          // "</": next must start a name
    kEndTag,              // end tag: scan for '>'
  };

  Result Fail(std::string message);

  /// The block path of kContent: settles whole tags in 64-byte windows
  /// and returns where the byte-at-a-time loop resumes — in kContent with
  /// fewer than 64 bytes left, in kLt just past a '<' it leaves to the
  /// state machine, or (with *done set) just past the '>' that closed the
  /// subtree.
  const char* ScanBlocks(const char* p, const char* end, bool* done);

  State state_ = State::kContent;
  uint64_t depth_ = 0;
  uint8_t prefix_pos_ = 0;  // next index to match in "<![CDATA["
  char quote_ = 0;          // active quote char in kStartTagQuote
  std::string error_;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_SKIP_SCANNER_H_
