// Event-based (SAX-style) XML parsing.
//
// A SaxHandler receives the document as events without a tree being
// materialized. PushParser (xml/push_parser.h) is the one tokenizer that
// produces them, fed in chunks; ParseXmlEvents is its one-shot form over a
// resident buffer, and xml::ParseXml is a DOM-building handler on top. The
// streaming validators (core/streaming_validator.h) consume these events
// directly, which is what realizes the paper's memory claim — "the memory
// requirement of our algorithm does not vary with the size of the
// document, but depends solely on the sizes of the schemas" (§7) — plus
// O(document depth) for the element stack.
//
// Handlers may abort the parse by returning a non-OK Status from any
// callback; the status is propagated to the caller unchanged (used by
// validators to stop at the first early reject).

#ifndef XMLREVAL_XML_SAX_H_
#define XMLREVAL_XML_SAX_H_

#include <string_view>
#include <vector>

#include "common/status.h"

namespace xmlreval::xml {

struct ParseOptions {
  /// Drop text nodes that are entirely XML whitespace. Data-oriented
  /// documents (everything in the paper's evaluation) use indentation
  /// whitespace that has no place in the content model, so this defaults on.
  bool skip_whitespace_text = true;
};

/// Attribute view valid only during the StartElement callback (it may point
/// into the caller's input chunk).
struct SaxAttribute {
  std::string_view name;
  std::string_view value;
};

/// Receiver of parse events. Default implementations accept and ignore.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  /// <!DOCTYPE name [subset]> — at most once, before the root element.
  virtual Status Doctype(std::string_view name, std::string_view subset) {
    (void)name;
    (void)subset;
    return Status::OK();
  }

  virtual Status StartElement(std::string_view name,
                              const std::vector<SaxAttribute>& attributes) {
    (void)name;
    (void)attributes;
    return Status::OK();
  }

  virtual Status EndElement(std::string_view name) {
    (void)name;
    return Status::OK();
  }

  /// Character data (entity references already decoded). The views passed
  /// to a handler are valid only during the callback. Consecutive runs —
  /// across CDATA sections, comments and PIs — arrive as one event;
  /// whitespace-only runs are dropped when skip_whitespace_text is set.
  virtual Status Characters(std::string_view text) {
    (void)text;
    return Status::OK();
  }
};

/// Streams `input` through `handler` (one PushParser Feed plus Finish).
/// Well-formedness errors, reported at 1-based line:column, and handler
/// failures both surface as the returned Status.
Status ParseXmlEvents(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options = {});

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_SAX_H_
