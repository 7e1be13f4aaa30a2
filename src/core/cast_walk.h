// CastWalk — the per-unit engine behind CastValidator (internal).
//
// ProcessUnit is the body of §3.2's validate(τ, τ', e) for ONE node: the
// subsumed/disjoint short-circuits, the simple-value or content-model
// check, and the child-typing pass that pushes the children onto the
// frontier in reverse document order (so a LIFO pop yields preorder).
// CastValidator drains that frontier on one thread.
//
// Counting discipline matches report.h: a node is visited once, at entry,
// which is the unit's pop.
//
// Failure protocol: ProcessUnit returns false with fail_node / fail_message
// set; it never materializes a Dewey path (the caller reconstructs one
// lazily, only for the failure it actually reports).

#ifndef XMLREVAL_CORE_CAST_WALK_H_
#define XMLREVAL_CORE_CAST_WALK_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/cast_validator.h"
#include "core/relations.h"
#include "core/report.h"
#include "schema/simple_types.h"
#include "xml/tree.h"

namespace xmlreval::core::internal {

struct CastWalk {
  const TypeRelations& rel;
  const Schema& source;
  const Schema& target;
  const xml::Document& doc;
  bool use_immediate;
  // True when the document is bound to the schema pair's alphabet: node
  // symbols are read directly (zero hashing, zero allocation); otherwise
  // each label is resolved through Alphabet::Find as before.
  bool use_symbols;
  // Raw SoA column pointers of `doc` (xml/tree.h): the walk's inner loops
  // stride dense int32 arrays directly instead of calling through the
  // Document accessors, and software-prefetch the next sibling's row.
  // Safe for the walk's lifetime — validation never creates nodes.
  const xml::Document::HotView hv = doc.hot_view();
  ValidationCounters counters{};
  // Reusable buffer for multi-text-chunk simple values (CastScratch).
  std::string* simple_value = nullptr;

  // Set when ProcessUnit returns false. fail_node carries the node the
  // violation is REPORTED AT (the parent, for poisoned child units).
  xml::NodeId fail_node = xml::kInvalidNode;
  std::string fail_message{};

  bool Fail(xml::NodeId node, std::string message) {
    fail_node = node;
    fail_message = std::move(message);
    return false;
  }

  /// Symbol of element `c`: the bound symbol when use_symbols, else a
  /// Find() with misses mapped to kUnboundSymbol (which matches nothing).
  automata::Symbol SymbolOf(xml::NodeId c) const {
    if (use_symbols) return hv.symbol[c];
    auto sym = source.alphabet()->Find(doc.label(c));
    return sym ? *sym : automata::kUnboundSymbol;
  }

  bool ContentFail(xml::NodeId node, TypeId t_type) {
    return Fail(node,
                StrCat("children of '", doc.label(node),
                       "' do not match the content model of target type '",
                       target.TypeName(t_type), "'"));
  }

  /// validate(τ, τ', e) for one frontier unit. Pushes the unit's element
  /// children onto *frontier (reverse document order: first child on top).
  /// Returns false on failure with fail_node/fail_message set.
  bool ProcessUnit(const CastUnit& unit, std::vector<CastUnit>* frontier) {
    const xml::NodeId node = unit.node;

    // Poisoned units: the failure was detected while expanding the parent
    // but is deferred to the child's document-order position, so every
    // earlier subtree gets validated (and can fail) first — exactly the
    // recursive algorithm's report order. The parent's entry counters were
    // charged when IT was processed; a poisoned child charges nothing.
    switch (unit.kind) {
      case CastUnitKind::kValidate:
        break;
      case CastUnitKind::kUnboundLabel:
        return Fail(doc.parent(node),
                    StrCat("element '", doc.label(node),
                           "' is outside the schemas' alphabet"));
      case CastUnitKind::kContentMismatch:
        // A label beyond an immediate-accept decision point fell outside
        // Σ_τ', contradicting content-model membership.
        return ContentFail(doc.parent(node), unit.target_type);
      case CastUnitKind::kPrecondition:
        return Fail(doc.parent(node),
                    StrCat("precondition violated: source type '",
                           source.TypeName(unit.source_type),
                           "' does not type child label '", doc.label(node),
                           "'"));
    }

    const TypeId s_type = unit.source_type;
    const TypeId t_type = unit.target_type;
    ++counters.nodes_visited;
    ++counters.elements_visited;

    // if τ ≤ τ' return true — the whole subtree is guaranteed valid.
    if (rel.Subsumed(s_type, t_type)) {
      ++counters.subtrees_skipped;
      return true;
    }
    // if τ ⊘ τ' return false — no tree valid for τ can be valid for τ'.
    if (rel.Disjoint(s_type, t_type)) {
      ++counters.disjoint_rejects;
      return Fail(node, StrCat("element '", doc.label(node),
                               "': source type '", source.TypeName(s_type),
                               "' is disjoint from target type '",
                               target.TypeName(t_type), "'"));
    }

    if (target.IsSimple(t_type)) {
      // Source validity rules out element children (a complex source type
      // would be disjoint from the simple target and caught above; a simple
      // source type has no element children). Check the χ value. The
      // overwhelmingly common shape is a single text child, validated as a
      // string_view straight out of the tree; multi-chunk values are
      // stitched into the reusable scratch buffer.
      size_t text_count = 0;
      xml::NodeId only_text = xml::kInvalidNode;
      for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
           c = hv.next_sibling[c]) {
        if (hv.IsText(c)) {
          ++counters.nodes_visited;
          ++counters.text_nodes_visited;
          if (++text_count == 1) only_text = c;
        }
      }
      ++counters.simple_checks;
      Status check;
      if (text_count <= 1) {
        const std::string_view sv =
            text_count == 0 ? std::string_view()
                            : std::string_view(doc.text(only_text));
        const schema::SimpleType& st = target.simple_type(t_type);
        // Inline probe first: decides the hot shapes (unrestricted strings,
        // range-faceted integers) without the full checker's call + Status
        // machinery. Probe verdicts agree exactly with ValidateSimpleValue;
        // undecided and invalid values take the full check (the latter for
        // its diagnostic).
        if (schema::ProbeSimpleValue(st, sv) > 0) return true;
        check = schema::ValidateSimpleValue(st, sv);
      } else {
        simple_value->clear();
        for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
             c = hv.next_sibling[c]) {
          if (hv.IsText(c)) *simple_value += doc.text(c);
        }
        check = schema::ValidateSimpleValue(target.simple_type(t_type),
                                            *simple_value);
      }
      if (!check.ok()) {
        return Fail(node,
                    StrCat("element '", doc.label(node), "': ",
                           check.message()));
      }
      return true;
    }

    // Complex target (and complex source, else the pair would be disjoint).
    // Attribute constraints of τ' are re-checked here: the source's
    // guarantees about attributes do not transfer (the pair was neither
    // subsumed nor disjoint).
    const schema::ComplexType& t_decl = target.complex_type(t_type);
    if (!t_decl.open_attributes) {
      ++counters.attr_checks;
      // Declares nothing + carries nothing = provably OK: the full check
      // would walk two empty containers. Common enough (structural wrapper
      // elements) that skipping the call is measurable.
      const std::vector<xml::Attribute>& node_attrs = doc.attributes(node);
      if (!t_decl.attributes.empty() || !node_attrs.empty()) {
        Status attrs = schema::ValidateTypeAttributes(t_decl, node_attrs);
        if (!attrs.ok()) {
          return Fail(node, StrCat("element '", doc.label(node), "': ",
                                   attrs.message()));
        }
      }
    }

    // Per §3.2's pseudocode: first decide the content-model membership,
    // then expand the children. Both passes stream over the sibling list;
    // when c_immed classifies the START state as immediate-accept — the
    // common case when the two content models coincide — the content pass
    // is skipped outright.
    const automata::ImmediateDfa* pair =
        use_immediate ? rel.PairAutomaton(s_type, t_type) : nullptr;
    const automata::Dfa* tdfa = rel.TargetDfa(t_type);

    // Content pass (the paper's "constructstring(children(e)) ∈ L?").
    bool decided = false;
    if (pair != nullptr &&
        pair->Class(pair->dfa().start_state()) ==
            automata::StateClass::kImmediateAccept) {
      ++counters.immediate_decisions;
      decided = true;
    }
    if (!decided) {
      automata::StateId q =
          pair ? pair->dfa().start_state() : tdfa->start_state();
      if (pair != nullptr &&
          pair->Class(q) == automata::StateClass::kImmediateReject) {
        ++counters.immediate_decisions;
        return ContentFail(node, t_type);
      }
      for (xml::NodeId c = hv.first_child[node];
           c != xml::kInvalidNode && !decided; c = hv.next_sibling[c]) {
        hv.PrefetchRow(hv.next_sibling[c]);
        if (!hv.IsElement(c)) continue;  // whitespace guaranteed by source
        automata::Symbol sym = SymbolOf(c);
        if (sym == automata::kUnboundSymbol) {
          return Fail(node, StrCat("element '", doc.label(c),
                                   "' is outside the schemas' alphabet"));
        }
        if (pair != nullptr) {
          // Symbols interned after the relations were computed exceed the
          // padded transition table; they cannot match any content model.
          if (sym >= pair->dfa().alphabet_size()) {
            return ContentFail(node, t_type);
          }
          q = pair->dfa().Next(q, sym);
          ++counters.dfa_steps;
          automata::StateClass cls = pair->Class(q);
          if (cls == automata::StateClass::kImmediateAccept) {
            ++counters.immediate_decisions;
            decided = true;
          } else if (cls == automata::StateClass::kImmediateReject) {
            ++counters.immediate_decisions;
            return ContentFail(node, t_type);
          }
        } else {
          if (sym >= tdfa->alphabet_size()) return ContentFail(node, t_type);
          q = tdfa->Next(q, sym);
          ++counters.dfa_steps;
        }
      }
      if (!decided) {
        // End of string: for c_immed, acceptance of the product is
        // F_a × F_b, and the source component accepts by the precondition.
        bool accepted =
            pair ? pair->dfa().IsAccepting(q) : tdfa->IsAccepting(q);
        if (!accepted) return ContentFail(node, t_type);
      }
    }

    // Expansion pass, with (types_τ(λ), types_τ'(λ)) per child. Typing
    // failures become poisoned units at the child's position (see above);
    // the span pushed forward is reversed so the FIRST child pops first.
    const size_t mark = frontier->size();
    for (xml::NodeId c = hv.first_child[node]; c != xml::kInvalidNode;
         c = hv.next_sibling[c]) {
      hv.PrefetchRow(hv.next_sibling[c]);
      if (!hv.IsElement(c)) continue;
      automata::Symbol sym = SymbolOf(c);
      if (sym == automata::kUnboundSymbol) {
        frontier->push_back({c, s_type, t_type, CastUnitKind::kUnboundLabel});
        continue;
      }
      TypeId child_t = target.ChildType(t_type, sym);
      if (child_t == schema::kInvalidType) {
        frontier->push_back(
            {c, s_type, t_type, CastUnitKind::kContentMismatch});
        continue;
      }
      TypeId child_s = source.ChildType(s_type, sym);
      if (child_s == schema::kInvalidType) {
        frontier->push_back({c, s_type, t_type, CastUnitKind::kPrecondition});
        continue;
      }
      frontier->push_back({c, child_s, child_t, CastUnitKind::kValidate});
    }
    std::reverse(frontier->begin() + mark, frontier->end());
    return true;
  }
};

/// Shared root prologue of doValidate(S, S', T). On success fills *unit
/// with the root's CastUnit and returns true; otherwise fills *report
/// (prologue failures keep the recursive engine's exact counter and path
/// discipline) and returns false.
inline bool ResolveRootUnit(const TypeRelations& rel, const xml::Document& doc,
                            bool use_symbols, ValidationReport* report,
                            CastUnit* unit) {
  auto fail = [&](std::string message) {
    report->valid = false;
    report->violation = std::move(message);
    report->violation_path = xml::DeweyPath();
    return false;
  };
  if (!doc.has_root()) return fail("document has no root element");
  const Schema& source = rel.source();
  const Schema& target = rel.target();
  automata::Symbol sym;
  if (use_symbols) {
    sym = doc.symbol(doc.root());
  } else {
    auto found = source.alphabet()->Find(doc.label(doc.root()));
    sym = found ? *found : automata::kUnboundSymbol;
  }
  bool in_sigma = sym != automata::kUnboundSymbol;
  TypeId s_root = in_sigma ? source.RootType(sym) : schema::kInvalidType;
  TypeId t_root = in_sigma ? target.RootType(sym) : schema::kInvalidType;
  if (s_root == schema::kInvalidType) {
    return fail(StrCat("precondition violated: root '",
                       doc.label(doc.root()),
                       "' is not declared by the source schema"));
  }
  if (t_root == schema::kInvalidType) {
    ++report->counters.nodes_visited;
    ++report->counters.elements_visited;
    return fail(StrCat("root element '", doc.label(doc.root()),
                       "' is not declared by the target schema"));
  }
  *unit = {doc.root(), s_root, t_root, CastUnitKind::kValidate};
  return true;
}

}  // namespace xmlreval::core::internal

#endif  // XMLREVAL_CORE_CAST_WALK_H_
