// DOM parsing: XML text in, xml::Document out.
//
// ParseXml and ParseXmlWithDoctype run the library's single tokenizer,
// PushParser (xml/push_parser.h), over the resident input in one Feed()
// and build the tree with a SAX handler. They check full well-formedness:
// tag matching, attribute uniqueness, a single root, legal character
// references. Supported are the prolog/XML declaration, comments,
// processing instructions, CDATA sections, character references (decimal
// and hex) and the five predefined entities. A DOCTYPE declaration is
// tolerated and its internal subset returned, not interpreted — DTDs are
// parsed separately by schema::ParseDtd.
//
// Because the input is resident, a parse error's byte offset is converted
// to a 1-based line:column (lines count '\n') — only on failure, so the
// success path never counts lines.
//
// Unsupported (out of the paper's scope, rejected with kUnsupported):
// user-defined general entities in content.

#ifndef XMLREVAL_XML_PARSER_H_
#define XMLREVAL_XML_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "common/result.h"
#include "xml/sax.h"
#include "xml/tree.h"

namespace xmlreval::xml {


/// Parses an XML document from `input`. Adjacent text runs (including
/// CDATA) become one text node. Errors carry 1-based line:column.
Result<Document> ParseXml(std::string_view input,
                          const ParseOptions& options = {});

/// Parses and returns the document plus the extracted DOCTYPE internal
/// subset (empty when absent); used by the DTD front end for documents that
/// inline their DTD.
struct ParsedWithDoctype {
  Document document;
  std::string doctype_name;      // name in <!DOCTYPE name ...>
  std::string internal_subset;   // text between '[' and ']'
};
Result<ParsedWithDoctype> ParseXmlWithDoctype(std::string_view input,
                                              const ParseOptions& options = {});

/// The SAX handler behind ParseXml: builds the tree from events, so a
/// document arriving in chunks can be fed through a PushParser into a DOM.
class DomBuilder final : public SaxHandler {
 public:
  /// With an alphabet, the document is bound to it and labels are interned
  /// as elements are created (see ParseOptions::intern_alphabet).
  explicit DomBuilder(
      std::shared_ptr<automata::Alphabet> intern_alphabet = nullptr);

  Status Doctype(std::string_view name, std::string_view subset) override;
  Status StartElement(std::string_view name,
                      const std::vector<SaxAttribute>& attributes) override;
  Status EndElement(std::string_view name) override;
  Status Characters(std::string_view text) override;

  /// The built document; call once, after the parser's Finish() succeeded.
  ParsedWithDoctype Take();

 private:
  Document doc_;
  std::vector<NodeId> stack_;
  std::string doctype_name_;
  std::string internal_subset_;
};

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_PARSER_H_
