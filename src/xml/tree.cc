#include "xml/tree.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace xmlreval::xml {

namespace internal {

void NodeColumns::Grow(size_t min_capacity) {
  size_t cap = capacity_ == 0 ? 64 : capacity_ * 2;
  if (cap < min_capacity) cap = min_capacity;
  // Each block is sliced into columns widest first, so every column is
  // aligned by construction. Only the first size_ rows are copied; the
  // rest stay uninitialized until PushRow writes them. The hot block is
  // replaced before the cold one is allocated, so the old hot block's
  // memory is free again for the allocator to reuse.
  auto hot = std::make_unique_for_overwrite<unsigned char[]>(
      cap * kHotBytesPerRow);
  NodeId* parent = reinterpret_cast<NodeId*>(hot.get());
  NodeId* first_child = parent + cap;
  NodeId* last_child = first_child + cap;
  NodeId* next_sibling = last_child + cap;
  NodeId* prev_sibling = next_sibling + cap;
  automata::Symbol* symbol =
      reinterpret_cast<automata::Symbol*>(prev_sibling + cap);
  uint8_t* flags = reinterpret_cast<uint8_t*>(symbol + cap);
  if (size_ != 0) {
    std::memcpy(parent, parent_, size_ * sizeof(NodeId));
    std::memcpy(first_child, first_child_, size_ * sizeof(NodeId));
    std::memcpy(last_child, last_child_, size_ * sizeof(NodeId));
    std::memcpy(next_sibling, next_sibling_, size_ * sizeof(NodeId));
    std::memcpy(prev_sibling, prev_sibling_, size_ * sizeof(NodeId));
    std::memcpy(symbol, symbol_, size_ * sizeof(automata::Symbol));
    std::memcpy(flags, flags_, size_ * sizeof(uint8_t));
  }
  block_ = std::move(hot);
  parent_ = parent;
  first_child_ = first_child;
  last_child_ = last_child;
  next_sibling_ = next_sibling;
  prev_sibling_ = prev_sibling;
  symbol_ = symbol;
  flags_ = flags;

  auto cold = std::make_unique_for_overwrite<unsigned char[]>(
      cap * kColdBytesPerRow);
  std::string_view* payload = reinterpret_cast<std::string_view*>(cold.get());
  uint32_t* attr_slot = reinterpret_cast<uint32_t*>(payload + cap);
  uint32_t* label = attr_slot + cap;
  if (size_ != 0) {
    std::memcpy(payload, payload_, size_ * sizeof(std::string_view));
    std::memcpy(attr_slot, attr_slot_, size_ * sizeof(uint32_t));
    std::memcpy(label, label_, size_ * sizeof(uint32_t));
  }
  cold_block_ = std::move(cold);
  payload_ = payload;
  attr_slot_ = attr_slot;
  label_ = label;
  capacity_ = cap;
}

void NodeColumns::MoveFrom(NodeColumns& o) {
  block_ = std::move(o.block_);
  cold_block_ = std::move(o.cold_block_);
  size_ = o.size_;
  capacity_ = o.capacity_;
  parent_ = o.parent_;
  first_child_ = o.first_child_;
  last_child_ = o.last_child_;
  next_sibling_ = o.next_sibling_;
  prev_sibling_ = o.prev_sibling_;
  symbol_ = o.symbol_;
  flags_ = o.flags_;
  payload_ = o.payload_;
  attr_slot_ = o.attr_slot_;
  label_ = o.label_;
  o.size_ = o.capacity_ = 0;
  o.parent_ = o.first_child_ = o.last_child_ = nullptr;
  o.next_sibling_ = o.prev_sibling_ = nullptr;
  o.symbol_ = nullptr;
  o.flags_ = nullptr;
  o.payload_ = nullptr;
  o.attr_slot_ = nullptr;
  o.label_ = nullptr;
}

std::string_view StringArena::Add(std::string_view s) {
  if (s.empty()) return std::string_view();
  if (s.size() > last_capacity_ - last_used_) {
    size_t chunk = std::max(s.size(), kChunkSize);
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(chunk));
    last_capacity_ = chunk;
    last_used_ = 0;
    allocated_ += chunk;
  }
  char* dst = chunks_.back().get() + last_used_;
  std::memcpy(dst, s.data(), s.size());
  last_used_ += s.size();
  used_ += s.size();
  return std::string_view(dst, s.size());
}

namespace {

// A 32-bit hash of every byte of `s`, eight at a time. Each step is a
// bijection of the state for a fixed word, so names of one length that
// differ anywhere (not just at the ends) reach different 64-bit states.
uint32_t HashLabel(std::string_view s) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = kMul ^ s.size();
  const char* p = s.data();
  size_t n = s.size();
  auto mix = [&](uint64_t w) {
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  };
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    mix(w);
  }
  if (n != 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    mix(w);
  }
  h *= 0xBF58476D1CE4E5B9ull;
  return static_cast<uint32_t>(h >> 32);
}

}  // namespace

uint32_t LabelTable::Intern(std::string_view name, StringArena* arena) {
  if (slots_.empty()) {
    entries_.reserve(16);
    slots_.assign(32, kNone);
  }
  const uint32_t hash = HashLabel(name);
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  for (uint32_t id; (id = slots_[slot]) != kNone; slot = (slot + 1) & mask) {
    if (entries_[id].hash == hash && Is(id, name)) return id;
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{arena->Add(name), hash, kNone, kNone, kUnresolved});
  slots_[slot] = id;
  if (entries_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
  return id;
}

void LabelTable::Rehash(size_t slot_count) {
  slots_.assign(slot_count, kNone);
  const size_t mask = slot_count - 1;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    size_t slot = entries_[id].hash & mask;
    while (slots_[slot] != kNone) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

}  // namespace internal

NodeId Document::NewElementRow(uint32_t label) {
  return cols_.PushRow(internal::kFlagAlive, SymbolForLabel(label),
                       labels_.name(label), label);
}

NodeId Document::CreateElement(std::string_view label) {
  return NewElementRow(labels_.Intern(label, &strings_));
}

NodeId Document::CreateText(std::string_view text) {
  return cols_.PushRow(internal::kFlagAlive | internal::kFlagText,
                       automata::kUnboundSymbol, strings_.Add(text),
                       internal::LabelTable::kNone);
}

NodeId Document::AppendNewElement(NodeId parent, std::string_view label) {
  XMLREVAL_CHECK(parent == kInvalidNode ? root_ == kInvalidNode
                                        : IsAlive(parent) && IsElement(parent),
                 "AppendNewElement needs a live element parent or no root");
  // Predict the label before hashing it: the label that followed the
  // previous element sibling's label last time, or, for a first child,
  // the label that last came first under the parent's label. Documents
  // repeat their structure, so one length check and memcmp usually
  // settle it.
  using internal::LabelTable;
  uint32_t owner = LabelTable::kNone;  // the label whose hint is used
  bool first = false;
  if (parent != kInvalidNode) {
    const NodeId tail = cols_.last_child()[parent];
    if (tail == kInvalidNode) {
      owner = cols_.label()[parent];
      first = true;
    } else if (IsElement(tail)) {
      owner = cols_.label()[tail];
    }
  }
  uint32_t id = LabelTable::kNone;
  if (owner != LabelTable::kNone) {
    id = first ? labels_.first_child_hint(owner)
               : labels_.next_sibling_hint(owner);
  }
  if (id == LabelTable::kNone || !labels_.Is(id, label)) {
    id = labels_.Intern(label, &strings_);
    if (owner != LabelTable::kNone) {
      (first ? labels_.first_child_hint(owner)
             : labels_.next_sibling_hint(owner)) = id;
    }
  }
  const NodeId node = NewElementRow(id);
  LinkLast(parent, node);
  return node;
}

NodeId Document::AppendNewText(NodeId parent, std::string_view text) {
  XMLREVAL_CHECK(IsAlive(parent) && IsElement(parent),
                 "AppendNewText needs a live element parent");
  const NodeId id = CreateText(text);
  LinkLast(parent, id);
  return id;
}

void Document::LinkLast(NodeId parent, NodeId child) {
  if (parent == kInvalidNode) {
    root_ = child;
    return;
  }
  NodeId* lasts = cols_.last_child();
  const NodeId tail = lasts[parent];
  cols_.parent()[child] = parent;
  cols_.prev_sibling()[child] = tail;
  cols_.next_sibling()[child] = kInvalidNode;
  if (tail != kInvalidNode) {
    cols_.next_sibling()[tail] = child;
  } else {
    cols_.first_child()[parent] = child;
  }
  lasts[parent] = child;
}

Status Document::CheckAttachable(NodeId node) const {
  if (!IsValidId(node)) return Status::InvalidArgument("invalid node id");
  if (!IsAlive(node)) {
    return Status::FailedPrecondition("node has been deleted");
  }
  if (parent(node) != kInvalidNode || node == root_) {
    return Status::FailedPrecondition("node is already attached");
  }
  return Status::OK();
}

Status Document::SetRoot(NodeId node) {
  RETURN_IF_ERROR(CheckAttachable(node));
  if (!IsElement(node)) {
    return Status::InvalidArgument("document root must be an element");
  }
  if (root_ != kInvalidNode) {
    return Status::FailedPrecondition("document already has a root");
  }
  root_ = node;
  return Status::OK();
}

Status Document::AppendChild(NodeId parent, NodeId child) {
  if (!IsValidId(parent) || !IsElement(parent)) {
    return Status::InvalidArgument("parent must be a live element");
  }
  RETURN_IF_ERROR(CheckAttachable(child));
  LinkLast(parent, child);
  return Status::OK();
}

Status Document::InsertBefore(NodeId reference, NodeId node) {
  if (!IsAlive(reference)) {
    return Status::InvalidArgument("reference node is not live");
  }
  NodeId parent = cols_.parent()[reference];
  if (parent == kInvalidNode) {
    return Status::FailedPrecondition("reference node has no parent");
  }
  RETURN_IF_ERROR(CheckAttachable(node));
  NodeId* parents = cols_.parent();
  NodeId* firsts = cols_.first_child();
  NodeId* nexts = cols_.next_sibling();
  NodeId* prevs = cols_.prev_sibling();
  const NodeId before = prevs[reference];
  parents[node] = parent;
  nexts[node] = reference;
  prevs[node] = before;
  if (before != kInvalidNode) {
    nexts[before] = node;
  } else {
    firsts[parent] = node;
  }
  prevs[reference] = node;
  return Status::OK();
}

Status Document::InsertAfter(NodeId reference, NodeId node) {
  if (!IsAlive(reference)) {
    return Status::InvalidArgument("reference node is not live");
  }
  NodeId parent = cols_.parent()[reference];
  if (parent == kInvalidNode) {
    return Status::FailedPrecondition("reference node has no parent");
  }
  RETURN_IF_ERROR(CheckAttachable(node));
  NodeId* parents = cols_.parent();
  NodeId* lasts = cols_.last_child();
  NodeId* nexts = cols_.next_sibling();
  NodeId* prevs = cols_.prev_sibling();
  const NodeId after = nexts[reference];
  parents[node] = parent;
  prevs[node] = reference;
  nexts[node] = after;
  if (after != kInvalidNode) {
    prevs[after] = node;
  } else {
    lasts[parent] = node;
  }
  nexts[reference] = node;
  return Status::OK();
}

Status Document::InsertFirstChild(NodeId parent, NodeId node) {
  if (!IsValidId(parent) || !IsElement(parent)) {
    return Status::InvalidArgument("parent must be a live element");
  }
  if (cols_.first_child()[parent] != kInvalidNode) {
    return InsertBefore(cols_.first_child()[parent], node);
  }
  return AppendChild(parent, node);
}

Status Document::RemoveLeaf(NodeId node) {
  if (!IsAlive(node)) return Status::InvalidArgument("node is not live");
  if (cols_.first_child()[node] != kInvalidNode) {
    return Status::FailedPrecondition("RemoveLeaf requires a leaf node");
  }
  NodeId* parents = cols_.parent();
  NodeId* firsts = cols_.first_child();
  NodeId* lasts = cols_.last_child();
  NodeId* nexts = cols_.next_sibling();
  NodeId* prevs = cols_.prev_sibling();
  const NodeId p = parents[node];
  const NodeId prev = prevs[node];
  const NodeId next = nexts[node];
  if (prev != kInvalidNode) {
    nexts[prev] = next;
  } else if (p != kInvalidNode) {
    firsts[p] = next;
  }
  if (next != kInvalidNode) {
    prevs[next] = prev;
  } else if (p != kInvalidNode) {
    lasts[p] = prev;
  }
  if (node == root_) root_ = kInvalidNode;
  parents[node] = prevs[node] = nexts[node] = kInvalidNode;
  cols_.flags()[node] &= ~internal::kFlagAlive;
  return Status::OK();
}

Status Document::Rename(NodeId node, std::string_view new_label) {
  if (!IsAlive(node)) return Status::InvalidArgument("node is not live");
  if (!IsElement(node)) {
    return Status::InvalidArgument("only elements can be renamed");
  }
  if (!IsValidXmlName(new_label)) {
    return Status::InvalidArgument("invalid XML name: '" +
                                   std::string(new_label) + "'");
  }
  // The row is repointed at the new label's table entry; the old label's
  // bytes stay as they are, so views of them remain valid.
  const uint32_t label = labels_.Intern(new_label, &strings_);
  cols_.label()[node] = label;
  cols_.payload()[node] = labels_.name(label);
  cols_.symbol()[node] = SymbolForLabel(label);
  return Status::OK();
}

automata::Symbol Document::LookUp(std::string_view name) {
  if (intern_alphabet_ != nullptr) return intern_alphabet_->Intern(name);
  auto sym = bound_alphabet_->Find(name);
  return sym ? *sym : automata::kUnboundSymbol;
}

automata::Symbol Document::SymbolForLabel(uint32_t label) {
  if (bound_alphabet_ == nullptr) return automata::kUnboundSymbol;
  automata::Symbol& cached = labels_.symbol(label);
  if (cached == internal::LabelTable::kUnresolved ||
      cached == automata::kUnboundSymbol) {
    cached = LookUp(labels_.name(label));
  }
  return cached;
}

void Document::BindRows() {
  labels_.ClearSymbols();
  const uint8_t* flags = cols_.flags();
  const uint32_t* labels = cols_.label();
  automata::Symbol* symbols = cols_.symbol();
  for (size_t id = 0; id < cols_.size(); ++id) {
    if (flags[id] != internal::kFlagAlive) continue;  // element + alive
    automata::Symbol& cached = labels_.symbol(labels[id]);
    if (cached == internal::LabelTable::kUnresolved) {
      cached = LookUp(labels_.name(labels[id]));
    }
    symbols[id] = cached;
  }
}

Status Document::Bind(std::shared_ptr<const automata::Alphabet> alphabet) {
  if (alphabet == nullptr) return Status::InvalidArgument("null alphabet");
  intern_alphabet_ = nullptr;
  bound_alphabet_ = std::move(alphabet);
  BindRows();
  return Status::OK();
}

Status Document::BindInterning(std::shared_ptr<automata::Alphabet> alphabet) {
  if (alphabet == nullptr) return Status::InvalidArgument("null alphabet");
  intern_alphabet_ = std::move(alphabet);
  bound_alphabet_ = intern_alphabet_;
  BindRows();
  return Status::OK();
}

void Document::Unbind() {
  bound_alphabet_ = nullptr;
  intern_alphabet_ = nullptr;
  automata::Symbol* symbols = cols_.symbol();
  for (size_t id = 0; id < cols_.size(); ++id) {
    symbols[id] = automata::kUnboundSymbol;
  }
}

Status Document::SetText(NodeId node, std::string_view text) {
  if (!IsAlive(node)) return Status::InvalidArgument("node is not live");
  if (!IsText(node)) {
    return Status::InvalidArgument("SetText requires a text node");
  }
  std::string_view& payload = cols_.payload()[node];
  if (text.size() <= payload.size() && !payload.empty()) {
    // Shrinking (or equal-size) edits reuse the node's existing arena
    // range; text bytes are exclusively this node's, so the overwrite is
    // invisible to every other payload.
    char* dst = const_cast<char*>(payload.data());
    std::memcpy(dst, text.data(), text.size());
    payload = std::string_view(dst, text.size());
  } else {
    payload = strings_.Add(text);
  }
  return Status::OK();
}

size_t Document::CountChildren(NodeId id) const {
  size_t n = 0;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) ++n;
  return n;
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

std::vector<Attribute>& Document::MutableAttributes(NodeId id) {
  uint32_t& slot = cols_.attr_slot()[id];
  if (slot == internal::kNoAttrSlot) {
    slot = static_cast<uint32_t>(attr_slots_.size());
    attr_slots_.emplace_back();
  }
  return attr_slots_[slot];
}

Status Document::AddAttribute(NodeId id, std::string_view name,
                              std::string_view value) {
  if (!IsAlive(id) || !IsElement(id)) {
    return Status::InvalidArgument("attributes require a live element");
  }
  MutableAttributes(id).push_back(
      Attribute{std::string(name), std::string(value)});
  return Status::OK();
}

Status Document::SetAttribute(NodeId id, std::string_view name,
                              std::string_view value) {
  if (!IsAlive(id) || !IsElement(id)) {
    return Status::InvalidArgument("attributes require a live element");
  }
  if (!IsValidXmlName(name)) {
    return Status::InvalidArgument("invalid attribute name '" +
                                   std::string(name) + "'");
  }
  std::vector<Attribute>& attrs = MutableAttributes(id);
  for (Attribute& a : attrs) {
    if (a.name == name) {
      a.value.assign(value);
      return Status::OK();
    }
  }
  attrs.push_back(Attribute{std::string(name), std::string(value)});
  return Status::OK();
}

Status Document::RemoveAttribute(NodeId id, std::string_view name) {
  if (!IsAlive(id) || !IsElement(id)) {
    return Status::InvalidArgument("attributes require a live element");
  }
  uint32_t slot = cols_.attr_slot()[id];
  if (slot == internal::kNoAttrSlot) return Status::OK();
  auto& attrs = attr_slots_[slot];
  for (auto it = attrs.begin(); it != attrs.end(); ++it) {
    if (it->name == name) {
      attrs.erase(it);
      return Status::OK();
    }
  }
  return Status::OK();
}

const std::string* Document::FindAttribute(NodeId id,
                                           std::string_view name) const {
  for (const Attribute& a : attributes(id)) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

std::string Document::SimpleContent(NodeId id) const {
  std::string out;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    if (IsText(c)) out += text(c);
  }
  return out;
}

size_t Document::SubtreeSize(NodeId id) const {
  size_t n = 1;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    n += SubtreeSize(c);
  }
  return n;
}

bool Document::HasOnlyWhitespaceText(NodeId id) const {
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    if (IsText(c) && !IsAllXmlWhitespace(text(c))) return false;
  }
  return true;
}

Document::MemoryStats Document::MemoryUsage() const {
  MemoryStats stats;
  stats.topology_bytes = cols_.arena_bytes();
  stats.payload_ref_bytes = cols_.cold_bytes();
  stats.label_table_bytes = labels_.bytes();
  stats.string_arena_bytes = strings_.allocated_bytes();
  stats.attribute_bytes = attr_slots_.capacity() * sizeof(attr_slots_[0]);
  for (const auto& slot : attr_slots_) {
    stats.attribute_bytes += slot.capacity() * sizeof(Attribute);
    for (const Attribute& a : slot) {
      stats.attribute_bytes += a.name.capacity() + a.value.capacity();
    }
  }
  return stats;
}

std::vector<NodeId> ElementChildren(const Document& doc, NodeId id) {
  std::vector<NodeId> out;
  ForEachElementChild(doc, id, [&](NodeId c) { out.push_back(c); });
  return out;
}

std::vector<std::string_view> ChildLabelString(const Document& doc,
                                               NodeId id) {
  std::vector<std::string_view> out;
  ForEachElementChild(doc, id,
                      [&](NodeId c) { out.push_back(doc.label(c)); });
  return out;
}

}  // namespace xmlreval::xml
