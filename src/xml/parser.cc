#include "xml/parser.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "xml/push_parser.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

// One Feed of the resident input plus Finish. A grammar error's byte
// offset becomes a 1-based line:column; handler and unsupported-entity
// statuses pass through unchanged.
Status ParseResident(std::string_view input, SaxHandler* handler,
                     const ParseOptions& options) {
  PushParser parser(handler, options);
  Status status = parser.Feed(input);
  if (status.ok()) status = parser.Finish();
  if (status.ok() || parser.error_offset() == PushParser::kNoErrorOffset) {
    return status;
  }
  const std::string_view before = input.substr(
      0, static_cast<size_t>(std::min<uint64_t>(parser.error_offset(),
                                                input.size())));
  const size_t line = 1 + static_cast<size_t>(
                              std::count(before.begin(), before.end(), '\n'));
  const size_t line_start = before.rfind('\n') + 1;  // npos + 1 == 0
  const size_t column = before.size() - line_start + 1;
  return Status::ParseError(StrCat(
      "XML parse error at ", std::to_string(line), ":",
      std::to_string(column), ": ", parser.error_detail()));
}

}  // namespace

Status DomBuilder::Doctype(std::string_view name, std::string_view subset) {
  doctype_name_.assign(name);
  internal_subset_.assign(subset);
  return Status::OK();
}

Status DomBuilder::StartElement(std::string_view name,
                                const std::vector<SaxAttribute>& attributes) {
  if (stack_.empty() && doc_.has_root()) {
    return Status::FailedPrecondition("a second root element");
  }
  const NodeId node =
      doc_.AppendNewElement(stack_.empty() ? kInvalidNode : stack_.back(),
                            name);
  for (const SaxAttribute& attr : attributes) {
    RETURN_IF_ERROR(doc_.AddAttribute(node, attr.name, attr.value));
  }
  stack_.push_back(node);
  return Status::OK();
}

Status DomBuilder::EndElement(std::string_view) {
  if (stack_.empty()) return Status::FailedPrecondition("no open element");
  stack_.pop_back();
  return Status::OK();
}

Status DomBuilder::Characters(std::string_view text) {
  if (stack_.empty()) {
    return Status::FailedPrecondition("text outside the root element");
  }
  doc_.AppendNewText(stack_.back(), text);
  return Status::OK();
}

ParsedWithDoctype DomBuilder::Take() {
  return ParsedWithDoctype{std::move(doc_), std::move(doctype_name_),
                           std::move(internal_subset_)};
}

Status ParseXmlEvents(std::string_view input, SaxHandler* handler,
                      const ParseOptions& options) {
  XMLREVAL_CHECK(handler != nullptr, "ParseXmlEvents requires a handler");
  return ParseResident(input, handler, options);
}

Result<Document> ParseXml(std::string_view input, const ParseOptions& options) {
  DomBuilder builder;
  RETURN_IF_ERROR(ParseResident(input, &builder, options));
  return std::move(builder.Take().document);
}

Result<ParsedWithDoctype> ParseXmlWithDoctype(std::string_view input,
                                              const ParseOptions& options) {
  DomBuilder builder;
  RETURN_IF_ERROR(ParseResident(input, &builder, options));
  return builder.Take();
}

}  // namespace xmlreval::xml
