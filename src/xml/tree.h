// Ordered labeled trees (the paper's document abstraction, Section 3).
//
// A Document owns its nodes in structure-of-arrays storage; a NodeId is a
// row index. The HOT topology data the validators' cast walk touches —
// flags (alive/kind), interned symbol, and the five structural links
// (parent / first-child / last-child / next-sibling / prev-sibling) — live
// as parallel dense columns inside ONE contiguous arena, so a preorder
// walk streams over contiguous int32 arrays instead of striding through
// ~120-byte heterogeneous records. COLD per-node data is split out of the
// traversal path entirely: label/text payloads are byte ranges in a
// chunked string arena (stable — chunks never move or shrink), and
// attributes live in a side table reached through a per-node slot index.
//
// Nodes are linked first-child / last-child / next-sibling / prev-sibling
// / parent, so all the traversals the validators need are O(1) per step
// and structural edits are O(1) pointer splices. NodeIds remain stable
// across edits (deleted nodes are tombstoned, never reused), which is what
// lets the update log of Section 3.3 refer to nodes safely. Payload bytes
// are likewise append-only: Rename/SetText write a new arena range (or
// overwrite in place when the new payload fits), so string_views handed
// out earlier never dangle.
//
// Element nodes carry a label (tag) and attributes; text nodes carry
// character data and correspond to the paper's chi-labeled leaves.

#ifndef XMLREVAL_XML_TREE_H_
#define XMLREVAL_XML_TREE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "common/result.h"
#include "common/status.h"

namespace xmlreval::xml {

/// Index of a node within its Document. kInvalidNode plays the role of null.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

enum class NodeKind : uint8_t {
  kElement,
  kText,
};

/// One attribute on an element node.
struct Attribute {
  std::string name;
  std::string value;
};

namespace internal {

// Bits of the per-node flags column. A node with neither bit set is a
// tombstoned element; kFlagText without kFlagAlive is a tombstoned text
// node. Kind never changes over a node's lifetime.
inline constexpr uint8_t kFlagAlive = 0x1;
inline constexpr uint8_t kFlagText = 0x2;

/// Slot index of an attribute-free node.
inline constexpr uint32_t kNoAttrSlot = 0xFFFFFFFFu;

/// All per-node columns, grown together, so a new row costs one capacity
/// check however many columns there are. Seven are hot, sliced from one
/// malloc'd block (5 × NodeId links, 1 × Symbol, 1 × uint8 flags — 25
/// bytes/node, vs the ~120-byte AoS node this replaced); two are cold
/// and never read by a walk, sliced from a second block (the payload view
/// and the attribute slot — 20 bytes/node). Growth copies column-by-column
/// so each array stays dense and contiguous; rows past size() are
/// uninitialized.
class NodeColumns {
 public:
  NodeColumns() = default;
  NodeColumns(NodeColumns&& o) noexcept { MoveFrom(o); }
  NodeColumns& operator=(NodeColumns&& o) noexcept {
    if (this != &o) MoveFrom(o);
    return *this;
  }
  NodeColumns(const NodeColumns&) = delete;
  NodeColumns& operator=(const NodeColumns&) = delete;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  /// Appends one row with all links kInvalidNode and no attribute slot;
  /// returns its index.
  uint32_t PushRow(uint8_t flags, automata::Symbol symbol,
                   std::string_view payload) {
    if (size_ == capacity_) Grow(size_ + 1);
    const uint32_t id = static_cast<uint32_t>(size_++);
    parent_[id] = kInvalidNode;
    first_child_[id] = kInvalidNode;
    last_child_[id] = kInvalidNode;
    next_sibling_[id] = kInvalidNode;
    prev_sibling_[id] = kInvalidNode;
    symbol_[id] = symbol;
    flags_[id] = flags;
    payload_[id] = payload;
    attr_slot_[id] = kNoAttrSlot;
    return id;
  }

  // Column base pointers (valid until the next PushRow).
  NodeId* parent() { return parent_; }
  NodeId* first_child() { return first_child_; }
  NodeId* last_child() { return last_child_; }
  NodeId* next_sibling() { return next_sibling_; }
  NodeId* prev_sibling() { return prev_sibling_; }
  automata::Symbol* symbol() { return symbol_; }
  uint8_t* flags() { return flags_; }
  std::string_view* payload() { return payload_; }
  uint32_t* attr_slot() { return attr_slot_; }
  const NodeId* parent() const { return parent_; }
  const NodeId* first_child() const { return first_child_; }
  const NodeId* last_child() const { return last_child_; }
  const NodeId* next_sibling() const { return next_sibling_; }
  const NodeId* prev_sibling() const { return prev_sibling_; }
  const automata::Symbol* symbol() const { return symbol_; }
  const uint8_t* flags() const { return flags_; }
  const std::string_view* payload() const { return payload_; }
  const uint32_t* attr_slot() const { return attr_slot_; }

  /// Bytes of the hot columns (the topology footprint MemoryUsage reports).
  size_t arena_bytes() const { return capacity_ * kHotBytesPerRow; }
  /// Bytes of the cold columns (payload views and attribute slots).
  size_t cold_bytes() const { return capacity_ * kColdBytesPerRow; }

 private:
  static constexpr size_t kHotBytesPerRow =
      5 * sizeof(NodeId) + sizeof(automata::Symbol) + sizeof(uint8_t);
  static constexpr size_t kColdBytesPerRow =
      sizeof(std::string_view) + sizeof(uint32_t);

  void Grow(size_t min_capacity);
  void MoveFrom(NodeColumns& o);

  std::unique_ptr<unsigned char[]> block_;       // hot columns
  std::unique_ptr<unsigned char[]> cold_block_;  // payload, attr_slot
  size_t size_ = 0;
  size_t capacity_ = 0;
  NodeId* parent_ = nullptr;
  NodeId* first_child_ = nullptr;
  NodeId* last_child_ = nullptr;
  NodeId* next_sibling_ = nullptr;
  NodeId* prev_sibling_ = nullptr;
  automata::Symbol* symbol_ = nullptr;
  uint8_t* flags_ = nullptr;
  std::string_view* payload_ = nullptr;  // label (element) / text (text)
  uint32_t* attr_slot_ = nullptr;        // kNoAttrSlot when attribute-free
};

/// Chunked append-only byte arena for label/text payloads. Chunks never
/// move once allocated, so the string_views handed out stay valid for the
/// arena's lifetime (including across Document moves). Oversized payloads
/// get a dedicated chunk.
class StringArena {
 public:
  /// Copies `s` into the arena; the returned view is stable forever.
  std::string_view Add(std::string_view s);

  size_t allocated_bytes() const { return allocated_; }
  size_t used_bytes() const { return used_; }

 private:
  static constexpr size_t kChunkSize = 1 << 16;

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t last_used_ = 0;      // bytes consumed in chunks_.back()
  size_t last_capacity_ = 0;  // size of chunks_.back()
  size_t allocated_ = 0;
  size_t used_ = 0;
};

}  // namespace internal

/// A mutable XML document: an ordered labeled tree plus attributes.
class Document {
 public:
  Document() = default;

  // Documents are heavyweight; move-only keeps accidental copies out of the
  // validators' hot paths.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;

  /// Creates a detached element node with the given tag.
  NodeId CreateElement(std::string_view label);

  /// Creates a detached text node with the given character data.
  NodeId CreateText(std::string_view text);

  /// Creates an element and appends it as the last child of `parent`, or
  /// makes it the root when `parent` is kInvalidNode. The one-step form
  /// for builders that create nodes in document order: `parent` must be a
  /// live element, or kInvalidNode on a rootless document (aborts
  /// otherwise).
  NodeId AppendNewElement(NodeId parent, std::string_view label);

  /// Creates a text node as the last child of `parent`, a live element.
  NodeId AppendNewText(NodeId parent, std::string_view text);

  /// Sets the document root. The node must be a detached element.
  Status SetRoot(NodeId node);

  /// Appends `child` (detached) as the last child of `parent`.
  Status AppendChild(NodeId parent, NodeId child);

  /// Inserts `node` (detached) immediately before `reference`, which must
  /// have a parent.
  Status InsertBefore(NodeId reference, NodeId node);

  /// Inserts `node` (detached) immediately after `reference`, which must
  /// have a parent.
  Status InsertAfter(NodeId reference, NodeId node);

  /// Inserts `node` (detached) as the first child of `parent`.
  Status InsertFirstChild(NodeId parent, NodeId node);

  /// Detaches `node` from its parent and tombstones it. The node must be a
  /// leaf (the paper's update model deletes leaves only; subtree deletion is
  /// expressed as a bottom-up sequence of leaf deletions).
  Status RemoveLeaf(NodeId node);

  /// Replaces the label of an element node.
  Status Rename(NodeId node, std::string_view new_label);

  /// Replaces the character data of a text node.
  Status SetText(NodeId node, std::string_view text);

  // -- Symbol binding ------------------------------------------------------
  //
  // A document may be bound to an Alphabet (the shared Σ of a schema pair),
  // after which every live element node carries its interned Symbol alongside
  // its label and validators skip the per-node hash lookup entirely. The two
  // flavors differ in who owns Σ:
  //
  //   * Bind(): find-only. Labels outside Σ get automata::kUnboundSymbol.
  //     Safe on a shared, registry-owned alphabet while holding
  //     SchemaRegistry::ReadGuard() — Bind never mutates Σ, and since Σ is
  //     append-only the cached symbols stay valid after the guard drops.
  //   * BindInterning(): interns labels not yet in Σ, so every element gets
  //     a real symbol. Single-writer only (parser, benchmarks, offline
  //     tools); never call this on an alphabet other threads may be reading.
  //
  // After either call, CreateElement/Rename keep node symbols coherent:
  // symbol(n) == alphabet.Find(label(n)) (or kUnboundSymbol on a miss).
  // Binding to a different alphabet re-resolves every live element.

  /// Binds to `alphabet` without mutating it; out-of-Σ labels map to
  /// kUnboundSymbol. Re-resolves all live element nodes.
  Status Bind(std::shared_ptr<const automata::Alphabet> alphabet);

  /// Binds to `alphabet` and interns all current and future labels into it.
  /// The caller must be the alphabet's sole writer (see automata/alphabet.h).
  Status BindInterning(std::shared_ptr<automata::Alphabet> alphabet);

  /// Drops the binding; all element symbols revert to kUnboundSymbol.
  void Unbind();

  bool IsBound() const { return bound_alphabet_ != nullptr; }

  /// True iff this document is bound to exactly `alphabet` (pointer
  /// identity — the validators' cheap precondition for the symbol path).
  bool BoundTo(const automata::Alphabet& alphabet) const {
    return bound_alphabet_.get() == &alphabet;
  }

  /// The bound alphabet, or nullptr.
  const automata::Alphabet* bound_alphabet() const {
    return bound_alphabet_.get();
  }

  /// Interned symbol of an element node: alphabet.Find(label) at binding /
  /// creation / rename time, kUnboundSymbol for unbound documents, out-of-Σ
  /// labels, and text nodes.
  automata::Symbol symbol(NodeId id) const { return cols_.symbol()[id]; }

  // -- Accessors -----------------------------------------------------------

  NodeId root() const { return root_; }
  bool has_root() const { return root_ != kInvalidNode; }

  bool IsValidId(NodeId id) const { return id < cols_.size(); }
  bool IsAlive(NodeId id) const {
    return IsValidId(id) && (cols_.flags()[id] & internal::kFlagAlive) != 0;
  }

  NodeKind kind(NodeId id) const {
    return (cols_.flags()[id] & internal::kFlagText) != 0 ? NodeKind::kText
                                                          : NodeKind::kElement;
  }
  bool IsElement(NodeId id) const {
    return (cols_.flags()[id] & internal::kFlagText) == 0;
  }
  bool IsText(NodeId id) const {
    return (cols_.flags()[id] & internal::kFlagText) != 0;
  }

  /// Tag of an element node, or empty for text nodes. The view points into
  /// the document's string arena: stable across edits and moves (arena
  /// chunks never move or shrink).
  std::string_view label(NodeId id) const {
    return IsElement(id) ? cols_.payload()[id] : std::string_view();
  }

  /// Character data of a text node, or empty for elements. Stability as
  /// for label(), EXCEPT that SetText may overwrite the bytes in place —
  /// don't cache text views across text edits to the same node.
  std::string_view text(NodeId id) const {
    return IsText(id) ? cols_.payload()[id] : std::string_view();
  }

  NodeId parent(NodeId id) const { return cols_.parent()[id]; }
  NodeId first_child(NodeId id) const { return cols_.first_child()[id]; }
  NodeId last_child(NodeId id) const { return cols_.last_child()[id]; }
  NodeId next_sibling(NodeId id) const { return cols_.next_sibling()[id]; }
  NodeId prev_sibling(NodeId id) const { return cols_.prev_sibling()[id]; }

  bool HasChildren(NodeId id) const {
    return cols_.first_child()[id] != kInvalidNode;
  }

  /// Number of children of `id` (O(children)).
  size_t CountChildren(NodeId id) const;

  /// Children of `id` in document order (O(children), allocates).
  std::vector<NodeId> Children(NodeId id) const;

  /// Attributes of an element node.
  const std::vector<Attribute>& attributes(NodeId id) const {
    uint32_t slot = cols_.attr_slot()[id];
    return slot == internal::kNoAttrSlot ? EmptyAttributes()
                                         : attr_slots_[slot];
  }

  /// Adds an attribute to an element node (no duplicate-name check; the
  /// parser enforces uniqueness at parse time).
  Status AddAttribute(NodeId id, std::string_view name, std::string_view value);

  /// Value of the named attribute, or nullptr when absent.
  const std::string* FindAttribute(NodeId id, std::string_view name) const;

  /// Sets (adding or overwriting) an attribute on an element node.
  Status SetAttribute(NodeId id, std::string_view name,
                      std::string_view value);

  /// Removes the named attribute; OK even when absent.
  Status RemoveAttribute(NodeId id, std::string_view name);

  /// Concatenation of the direct text children of `id`; the "simple value"
  /// an element with simple type carries.
  std::string SimpleContent(NodeId id) const;

  /// Total nodes ever created (tombstones included).
  size_t NodeCount() const { return cols_.size(); }

  /// Number of live nodes in the subtree rooted at `id` (O(subtree)).
  size_t SubtreeSize(NodeId id) const;

  /// True if all text children of `id` are whitespace-only. Used by the
  /// validators to decide whether mixed text is ignorable.
  bool HasOnlyWhitespaceText(NodeId id) const;

  // -- Hot view ------------------------------------------------------------

  /// Raw column pointers for the validators' traversal hot loops: one load
  /// per step straight off a dense array, no Document indirection, plus
  /// software prefetch of the next row. Pointers are invalidated by node
  /// creation (column growth); re-fetch after any CreateElement/CreateText.
  /// Structural edits (splices, renames, deletes) do NOT invalidate it.
  struct HotView {
    const uint8_t* flags;
    const automata::Symbol* symbol;
    const NodeId* parent;
    const NodeId* first_child;
    const NodeId* last_child;
    const NodeId* next_sibling;
    const NodeId* prev_sibling;

    bool IsElement(NodeId id) const {
      return (flags[id] & internal::kFlagText) == 0;
    }
    bool IsText(NodeId id) const {
      return (flags[id] & internal::kFlagText) != 0;
    }

    /// Hints the row of `id` into cache: the columns a frontier walk reads
    /// next (links + symbol). No-op when `id` is kInvalidNode.
    void PrefetchRow(NodeId id) const {
#if defined(__GNUC__) || defined(__clang__)
      if (id == kInvalidNode) return;
      __builtin_prefetch(&next_sibling[id]);
      __builtin_prefetch(&first_child[id]);
      __builtin_prefetch(&symbol[id]);
#else
      (void)id;
#endif
    }
  };

  HotView hot_view() const {
    return HotView{cols_.flags(),        cols_.symbol(),
                   cols_.parent(),       cols_.first_child(),
                   cols_.last_child(),   cols_.next_sibling(),
                   cols_.prev_sibling()};
  }

  // -- Memory accounting ---------------------------------------------------

  /// Per-document footprint of the SoA storage, split by region. Costs
  /// O(attribute slots); meant for gauges and bench stamps, not hot paths.
  struct MemoryStats {
    size_t topology_bytes = 0;      // hot column arena (flags..siblings)
    size_t payload_ref_bytes = 0;   // cold columns: payload views, slots
    size_t string_arena_bytes = 0;  // label/text byte chunks (allocated)
    size_t attribute_bytes = 0;     // side table incl. string capacities
    size_t total() const {
      return topology_bytes + payload_ref_bytes + string_arena_bytes +
             attribute_bytes;
    }
  };
  MemoryStats MemoryUsage() const;

 private:
  static const std::vector<Attribute>& EmptyAttributes() {
    static const std::vector<Attribute> empty;
    return empty;
  }

  Status CheckAttachable(NodeId node) const;

  /// Links detached `child` as the last child of `parent`, or as the root
  /// when `parent` is kInvalidNode. Unchecked.
  void LinkLast(NodeId parent, NodeId child);

  /// Resolves `label` through the current binding (intern or find).
  automata::Symbol ResolveSymbol(std::string_view label);

  /// Rebinds node `id`'s payload to `bytes`, overwriting in place when the
  /// new payload fits in the old range (no arena growth on shrinking
  /// edits); otherwise appends a fresh range.
  void ReplacePayload(NodeId id, std::string_view bytes);

  /// The attribute vector of `id`, creating its side-table slot on demand.
  std::vector<Attribute>& MutableAttributes(NodeId id);

  internal::NodeColumns cols_;
  internal::StringArena strings_;
  std::vector<std::vector<Attribute>> attr_slots_;

  NodeId root_ = kInvalidNode;

  // bound_alphabet_ is the read view; intern_alphabet_ is non-null only
  // after BindInterning and aliases the same object, mutably.
  std::shared_ptr<const automata::Alphabet> bound_alphabet_;
  std::shared_ptr<automata::Alphabet> intern_alphabet_;
};

/// Iterates the element children of `id` (skipping text nodes), calling
/// `fn(child)` in document order. Fn: void(NodeId).
template <typename Fn>
void ForEachElementChild(const Document& doc, NodeId id, Fn&& fn) {
  for (NodeId c = doc.first_child(id); c != kInvalidNode;
       c = doc.next_sibling(c)) {
    if (doc.IsElement(c)) fn(c);
  }
}

/// Non-allocating range over the element children of a node, in document
/// order. The validators' replacement for the allocating ElementChildren /
/// ChildLabelString helpers: `for (NodeId c : ElementChildRange(doc, id))`
/// walks the sibling chain directly. Iterators are invalidated by structural
/// edits to the parent's child list.
class ElementChildRange {
 public:
  class iterator {
   public:
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() : doc_(nullptr), cur_(kInvalidNode) {}
    iterator(const Document* doc, NodeId cur) : doc_(doc), cur_(cur) {
      SkipText();
    }

    NodeId operator*() const { return cur_; }
    iterator& operator++() {
      cur_ = doc_->next_sibling(cur_);
      SkipText();
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const iterator& o) const { return cur_ == o.cur_; }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

   private:
    void SkipText() {
      while (cur_ != kInvalidNode && !doc_->IsElement(cur_)) {
        cur_ = doc_->next_sibling(cur_);
      }
    }
    const Document* doc_;
    NodeId cur_;
  };

  ElementChildRange(const Document& doc, NodeId parent)
      : doc_(&doc), parent_(parent) {}

  iterator begin() const { return iterator(doc_, doc_->first_child(parent_)); }
  iterator end() const { return iterator(); }
  bool empty() const { return begin() == end(); }

 private:
  const Document* doc_;
  NodeId parent_;
};

/// Collects the element children of `id` in document order. Allocates; kept
/// for tests and non-hot callers — use ElementChildRange on validator paths.
std::vector<NodeId> ElementChildren(const Document& doc, NodeId id);

/// The string of child element labels of `id` — the paper's
/// `constructstring(children(e))` — in document order. Allocates; hot paths
/// read `doc.symbol(c)` over an ElementChildRange instead.
std::vector<std::string_view> ChildLabelString(const Document& doc, NodeId id);

}  // namespace xmlreval::xml

#endif  // XMLREVAL_XML_TREE_H_
