#include "core/full_validator.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::core {

using automata::Symbol;
using schema::kInvalidType;

FullValidator::FullValidator(const Schema* schema) : schema_(schema) {
  XMLREVAL_CHECK(schema != nullptr, "FullValidator requires a schema");
}

struct FullValidator::Walk {
  const Schema& schema;
  const xml::Document& doc;
  // Document bound to this schema's alphabet: read node symbols directly.
  bool use_symbols;
  ValidationReport report;
  std::vector<uint32_t> path;  // Dewey path of the current node

  void Fail(std::string message) {
    report.valid = false;
    report.violation = std::move(message);
    report.violation_path = xml::DeweyPath(path);
  }

  Symbol SymbolOf(xml::NodeId c) const {
    if (use_symbols) return doc.symbol(c);
    auto sym = schema.alphabet()->Find(doc.label(c));
    return sym ? *sym : automata::kUnboundSymbol;
  }

  // validate(τ, e) from Definition 1's pseudocode.
  bool ValidateNode(xml::NodeId node, TypeId type) {
    ++report.counters.nodes_visited;
    ++report.counters.elements_visited;

    if (schema.IsSimple(type)) {
      // Simple content: no element children; the (possibly empty)
      // concatenated text is the χ value checked against the facets.
      std::string value;
      uint32_t ordinal = 0;
      for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
           c = doc.next_sibling(c), ++ordinal) {
        if (doc.IsElement(c)) {
          path.push_back(ordinal);
          Fail(StrCat("element '", doc.label(c), "' not allowed under '",
                      doc.label(node), "', whose type '",
                      schema.TypeName(type), "' is simple"));
          path.pop_back();
          return false;
        }
        ++report.counters.nodes_visited;
        ++report.counters.text_nodes_visited;
        value += doc.text(c);
      }
      ++report.counters.simple_checks;
      Status check = schema::ValidateSimpleValue(schema.simple_type(type),
                                                 value);
      if (!check.ok()) {
        Fail(StrCat("element '", doc.label(node), "': ", check.message()));
        return false;
      }
      return true;
    }

    // Attributes first (complex types only; simple-typed elements carry no
    // attribute constraints in this model).
    const schema::ComplexType& decl = schema.complex_type(type);
    if (!decl.open_attributes) {
      ++report.counters.attr_checks;
      Status attrs = schema::ValidateTypeAttributes(decl, doc.attributes(node));
      if (!attrs.ok()) {
        Fail(StrCat("element '", doc.label(node), "': ", attrs.message()));
        return false;
      }
    }

    // Complex content: text children must be ignorable whitespace; the
    // child-label string must be in L(regexp_τ); children recurse.
    // Lazily-determinized content models are stepped directly — each row
    // expands on first use and never forces the full subset construction;
    // eager models read the minimized table.
    const automata::LazyDfa* lazy = schema.LazyContentDfa(type);
    // A type with no lazy model was compiled eagerly, so its DFA is set.
    const automata::Dfa* dfa =
        lazy == nullptr ? &*schema.complex_type(type).dfa : nullptr;
    automata::StateId q =
        lazy != nullptr ? lazy->start_state() : dfa->start_state();
    const size_t sigma =
        lazy != nullptr ? lazy->alphabet_size() : dfa->alphabet_size();
    uint32_t ordinal = 0;
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c), ++ordinal) {
      if (doc.IsText(c)) {
        ++report.counters.nodes_visited;
        ++report.counters.text_nodes_visited;
        if (!IsAllXmlWhitespace(doc.text(c))) {
          path.push_back(ordinal);
          Fail(StrCat("character data not allowed under '", doc.label(node),
                      "', whose type '", schema.TypeName(type),
                      "' has element-only content"));
          path.pop_back();
          return false;
        }
        continue;
      }
      Symbol sym = SymbolOf(c);
      if (sym >= sigma || schema.ChildType(type, sym) == kInvalidType) {
        path.push_back(ordinal);
        Fail(StrCat("element '", doc.label(c),
                    "' not allowed by the content model of type '",
                    schema.TypeName(type), "'"));
        path.pop_back();
        return false;
      }
      q = lazy != nullptr ? lazy->Step(q, sym) : dfa->Next(q, sym);
      ++report.counters.dfa_steps;
    }
    if (lazy != nullptr ? !lazy->IsAccepting(q) : !dfa->IsAccepting(q)) {
      Fail(StrCat("children of '", doc.label(node),
                  "' do not match the content model of type '",
                  schema.TypeName(type), "'"));
      return false;
    }

    // Recurse: every child, with types_τ(λ(child)).
    ordinal = 0;
    for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
         c = doc.next_sibling(c), ++ordinal) {
      if (!doc.IsElement(c)) continue;
      TypeId child_type = schema.ChildType(type, SymbolOf(c));
      path.push_back(ordinal);
      bool ok = ValidateNode(c, child_type);
      path.pop_back();
      if (!ok) return false;
    }
    return true;
  }
};

ValidationReport FullValidator::Validate(const xml::Document& doc) const {
  // One span per document — the Definition 1 full-traversal phase.
  obs::Span span("full.traverse");
  Walk walk{*schema_, doc, doc.BoundTo(*schema_->alphabet()), {}, {}};
  if (!doc.has_root()) {
    walk.Fail("document has no root element");
    return std::move(walk.report);
  }
  Symbol sym = walk.SymbolOf(doc.root());
  TypeId root_type = sym != automata::kUnboundSymbol ? schema_->RootType(sym)
                                                     : kInvalidType;
  if (root_type == kInvalidType) {
    ++walk.report.counters.nodes_visited;
    ++walk.report.counters.elements_visited;
    walk.Fail(StrCat("root element '", doc.label(doc.root()),
                     "' is not declared by the schema"));
    return std::move(walk.report);
  }
  walk.ValidateNode(doc.root(), root_type);
  AttachTraceArgs(span, walk.report.counters);
  return std::move(walk.report);
}

ValidationReport FullValidator::ValidateSubtree(const xml::Document& doc,
                                                xml::NodeId node,
                                                TypeId type) const {
  Walk walk{*schema_, doc, doc.BoundTo(*schema_->alphabet()), {}, {}};
  walk.ValidateNode(node, type);
  return std::move(walk.report);
}

}  // namespace xmlreval::core
