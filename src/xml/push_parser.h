// The XML tokenizer: incremental (push-mode) SAX event parsing.
//
// PushParser is the only XML grammar in the library. Callers Feed() byte
// chunks as they arrive (pipe, socket, mmap window) and the parser emits
// SAX events with full well-formedness checking; ParseXmlEvents, ParseXml
// and ParseXmlWithDoctype are one Feed() of the resident input plus
// Finish(). Live state is
//
//   * the open-element tag stack                    — O(document depth)
//   * one carry buffer for the single construct that
//     straddles a chunk boundary (a tag, a DOCTYPE,
//     a character or entity reference)              — bounded by the
//                                                     longest single tag
//   * the pending text of the current text node, when
//     it crosses a chunk boundary or needs decoding — bounded by the
//                                                     largest text node
//
// none of which grows with document size.
//
// Zero-copy fast path: a start or end tag, a reference or a text run that
// lies wholly inside the current chunk is parsed in place — names and
// undecoded attribute values and text reach the handler as views into the
// chunk, found with SIMD byte scans. Decoded bytes go to one text buffer and
// one attribute buffer, both reused across tags, so a warmed parser does
// not allocate per tag. Only a construct cut by the chunk's end is copied
// into the carry buffer and finished when the next chunk arrives; feeding
// a whole document in one chunk carries nothing but a DOCTYPE. Comments,
// CDATA sections and processing instructions of any length cross chunk
// boundaries with O(1) state (rolling terminator match).
//
// Text is always coalesced: one Characters event per run between tags,
// across CDATA sections, comments, PIs and chunk boundaries. Parse errors
// carry the absolute byte offset of the fault (counting lines would touch
// every byte and defeat skip-scanning); error_offset() exposes it so the
// one-shot entry points can report line:column instead. Events and
// errors do not depend on how the input is chunked.
//
// SkipCurrentSubtree() is the hook for schema-cast subsumption skipping
// (core/streaming_validator.h): called from within StartElement, it stops
// tokenizing and hands the bytes to SkipScanner until the element's
// matching end tag. The skipped element gets NO EndElement event and its
// descendants produce no events at all; bytes so consumed are tallied in
// bytes_skipped().

#ifndef XMLREVAL_XML_PUSH_PARSER_H_
#define XMLREVAL_XML_PUSH_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax.h"
#include "xml/skip_scanner.h"

namespace xmlreval::xml {

class PushParser {
 public:
  /// error_offset() when the latched status did not come from the grammar
  /// (a handler abort, an unsupported entity, or no error at all).
  static constexpr uint64_t kNoErrorOffset = ~uint64_t{0};

  /// `handler` must outlive the parser. Honors
  /// ParseOptions::skip_whitespace_text.
  explicit PushParser(SaxHandler* handler, const ParseOptions& options = {});

  PushParser(const PushParser&) = delete;
  PushParser& operator=(const PushParser&) = delete;

  /// Consumes the next chunk. Returns non-OK on the first well-formedness
  /// error or handler abort; the parser is then latched and every later
  /// Feed/Finish returns the same status.
  Status Feed(std::string_view chunk);

  /// Declares end of input; checks that the document completed. Idempotent.
  Status Finish();

  /// Callable ONLY from inside SaxHandler::StartElement: suppresses the
  /// just-started element's subtree. For a self-closing element this only
  /// cancels its EndElement; otherwise the parser switches to the raw-byte
  /// SkipScanner until the matching end tag.
  void SkipCurrentSubtree();

  uint64_t bytes_fed() const { return bytes_fed_; }
  /// Bytes consumed by the raw-byte skip scanner (never tokenized).
  uint64_t bytes_skipped() const { return bytes_skipped_; }
  /// High-water mark of the chunk-boundary carry buffer.
  uint64_t peak_carry_bytes() const { return peak_carry_; }
  /// Currently open elements (excludes a subtree being skipped).
  size_t depth() const { return open_ends_.size(); }

  /// Absolute byte offset of the latched well-formedness error, or
  /// kNoErrorOffset.
  uint64_t error_offset() const { return error_offset_; }
  /// The latched error's description without its position prefix.
  const std::string& error_detail() const { return error_detail_; }

 private:
  enum class Mode : uint8_t {
    kProlog,   // before the root element: XML decl, comments, DOCTYPE, PIs
    kContent,  // inside the root element (or at its start tag)
    kSkip,     // raw-byte subtree skip via SkipScanner
    kEpilog,   // after the root closed: whitespace, comments, PIs only
  };

  // Where the previous chunk left off. kText is the in-place state; every
  // other state finishes a construct the chunk boundary cut.
  enum class Sub : uint8_t {
    kText,         // character data (content) / whitespace (prolog, epilog)
    kMarkupLt,     // carry == "<": classify the construct
    kMarkupBang,   // carry == "<!...": comment / CDATA / DOCTYPE dispatch
    kStartTagAcc,  // accumulating a start tag into carry (quote-aware)
    kEndTagAcc,    // accumulating an end tag into carry
    kDoctypeAcc,   // accumulating a DOCTYPE into carry (bracket/quote-aware)
    kCharRef,      // accumulating an '&...;' reference into carry
    kComment,      // inside "<!--": scan for '-'
    kCommentDash,
    kCommentDashDash,
    kCData,        // inside CDATA: bytes join the pending text
    kCDataBracket,
    kCDataBracketBracket,
    kPi,           // inside "<?": scan for '?'
    kPiQ,
  };

  // One pass over the current chunk view; returns on error or drain.
  Status Run();
  Status RunSkip();
  Status RunContentText();
  Status RunMiscText();
  Status RunMarkupLt();
  Status RunMarkupBang();
  Status RunStartTagAcc();
  Status RunEndTagAcc();
  Status RunDoctypeAcc();
  Status RunCharRef();
  Status RunComment();
  Status RunCData();
  Status RunPi();

  // In-place dispatch at a '<' / '&' of the current chunk: handles the
  // construct from the chunk when it ends inside it, else starts carrying.
  Status MarkupAt(const char* lt);
  Status StartTagAt(const char* lt);
  Status EndTagAt(const char* lt);
  Status ReferenceAt(const char* amp);
  /// Copies [begin, end_) into the carry buffer and resumes in `sub`.
  void CarryRest(const char* begin, Sub sub);

  /// Quote-aware scan for the '>' ending a start tag, updating tag_quote_.
  /// Returns the byte past '>', or nullptr when `end` came first.
  Status ScanStartTag(const char* from, const char* end, const char** gt);

  /// Parses the start tag at `lt` in one pass into tag_name_, attrs_ and
  /// self_closing_; `offset` is lt's. Sets *gt past its '>', or to nullptr
  /// when `end` comes first.
  Status ParseStartTag(const char* lt, const char* end, uint64_t offset,
                       const char** gt);

  // Complete-construct handlers; `offset` is the construct's first byte.
  Status HandleStartTag(std::string_view tag, uint64_t offset);
  /// Emits the start tag ParseStartTag left in tag_name_ / attrs_.
  Status DispatchStartTag();
  Status PopElement(std::string_view name);
  Status HandleEndTag(std::string_view tag, uint64_t offset);
  Status HandleDoctype(std::string_view text, uint64_t offset);
  /// Appends the decoded reference to `out`; `body` is the text between
  /// '&' and ';', already checked byte by byte (ReferenceByteError).
  Status DecodeReference(std::string_view body, uint64_t offset,
                         std::string* out);

  // The pending text run: a view into the current chunk while it is one
  // undecoded piece, otherwise text_buf_.
  void AddText(const char* data, size_t n);
  std::string& TextBuffer();
  Status EmitText();

  void CarryByte(char c);
  void CarryStart(char c);

  std::string_view OpenTag() const;  // innermost open element's name

  uint64_t OffsetOf(const char* p) const {
    return end_offset_ - static_cast<uint64_t>(end_ - p);
  }
  uint64_t Offset() const { return OffsetOf(p_); }
  Status ErrorAt(uint64_t offset, std::string_view message);
  Status Error(std::string_view message) { return ErrorAt(Offset(), message); }

  SaxHandler* handler_;
  bool skip_whitespace_text_;

  Mode mode_ = Mode::kProlog;
  Sub sub_ = Sub::kText;

  // The view being consumed by the current Feed() call.
  const char* p_ = nullptr;
  const char* end_ = nullptr;
  uint64_t end_offset_ = 0;  // absolute offset of end_

  std::string carry_;
  uint64_t carry_offset_ = 0;  // absolute offset of carry_[0]
  char tag_quote_ = 0;         // active quote inside a start tag
  char doctype_quote_ = 0;
  int doctype_depth_ = 0;      // '[' nesting inside kDoctypeAcc

  const char* text_view_ = nullptr;  // pending text in the chunk, if any
  size_t text_view_size_ = 0;
  std::string text_buf_;             // pending text otherwise

  // Open element names, concatenated; open_ends_[i] is the end of the
  // i-th name in open_names_.
  std::string open_names_;
  std::vector<uint32_t> open_ends_;

  // The start tag being dispatched. Names and values are views into the
  // tag, except values with references: those are decoded into attr_buf_
  // (the byte ranges in decoded_).
  struct DecodedValue {
    size_t attr;  // index into attrs_
    size_t begin;
    size_t end;
  };
  std::string_view tag_name_;
  bool self_closing_ = false;
  std::vector<SaxAttribute> attrs_;
  std::string attr_buf_;
  std::vector<DecodedValue> decoded_;

  SkipScanner skipper_;
  bool skip_is_root_ = false;

  // Set by SkipCurrentSubtree; only honored during StartElement dispatch.
  bool in_start_element_ = false;
  bool skip_requested_ = false;

  bool finished_ = false;
  bool failed_ = false;
  Status final_status_;  // latched first error, or the Finish() result
  uint64_t error_offset_ = kNoErrorOffset;
  std::string error_detail_;

  uint64_t bytes_fed_ = 0;
  uint64_t bytes_skipped_ = 0;
  uint64_t peak_carry_ = 0;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_PUSH_PARSER_H_
