#include "tag/tag_tree.h"

#include <utility>

#include "common/check.h"

namespace gmr::tag {
namespace {

/// Finds the owning unique_ptr of `target` within the tree rooted at *root.
/// Returns nullptr when target is not in the tree. O(n), acceptable because
/// only the reference expansion (tag::Expand) adjoins.
TagNodePtr* FindOwner(TagNodePtr* root, TagNode* target) {
  if (root->get() == target) return root;
  for (auto& child : (*root)->children) {
    if (TagNodePtr* found = FindOwner(&child, target)) return found;
  }
  return nullptr;
}

void CollectPointers(TagNode* node, std::vector<TagNode*>* adjoinable,
                     std::vector<TagNode*>* slots, TagNode** foot) {
  switch (node->kind) {
    case TagNode::Kind::kOperator:
    case TagNode::Kind::kWrapper:
      adjoinable->push_back(node);
      break;
    case TagNode::Kind::kSlot:
      slots->push_back(node);
      break;
    case TagNode::Kind::kFoot:
      *foot = node;
      break;
    default:
      break;
  }
  for (auto& child : node->children) {
    CollectPointers(child.get(), adjoinable, slots, foot);
  }
}

}  // namespace

TagNodePtr TagNode::Clone() const {
  auto copy = std::make_unique<TagNode>();
  copy->kind = kind;
  copy->label = label;
  copy->op = op;
  copy->leaf = leaf;  // Expressions are immutable and shared.
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::size_t TagNode::NodeCount() const {
  std::size_t count = 1;
  for (const auto& child : children) count += child->NodeCount();
  return count;
}

TagNodePtr OperatorNode(Symbol label, expr::NodeKind op,
                        std::vector<TagNodePtr> children) {
  GMR_CHECK_EQ(static_cast<int>(children.size()), expr::Arity(op));
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kOperator;
  node->label = std::move(label);
  node->op = op;
  node->children = std::move(children);
  return node;
}

TagNodePtr WrapperNode(Symbol label, TagNodePtr child) {
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kWrapper;
  node->label = std::move(label);
  node->children.push_back(std::move(child));
  return node;
}

TagNodePtr SystemNode(std::vector<TagNodePtr> equations) {
  GMR_CHECK_GT(equations.size(), 0u);
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kSystem;
  node->label = "Sys";
  node->children = std::move(equations);
  return node;
}

TagNodePtr LeafNode(expr::ExprPtr leaf) {
  GMR_CHECK(leaf != nullptr);
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kLeaf;
  node->leaf = std::move(leaf);
  return node;
}

TagNodePtr SlotNode(Symbol label) {
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kSlot;
  node->label = std::move(label);
  return node;
}

TagNodePtr FootNode(Symbol label) {
  auto node = std::make_unique<TagNode>();
  node->kind = TagNode::Kind::kFoot;
  node->label = std::move(label);
  return node;
}

TagNodePtr FromExpr(const expr::ExprPtr& e, const Symbol& label) {
  GMR_CHECK(e != nullptr);
  if (e->IsLeaf()) return LeafNode(e);
  std::vector<TagNodePtr> children;
  children.reserve(e->children().size());
  for (const auto& child : e->children()) {
    children.push_back(FromExpr(child, label));
  }
  return OperatorNode(label, e->kind(), std::move(children));
}

ElementaryTree::ElementaryTree(std::string name, TagNodePtr root)
    : name_(std::move(name)), root_(std::move(root)) {
  GMR_CHECK(root_ != nullptr);
  plan_.reserve(root_->NodeCount());  // A grammar holds a plan per tree.
  IndexNode(*root_);
}

void ElementaryTree::IndexNode(const TagNode& node) {
  // plan_ grows during the recursion, so entries are addressed by index.
  const std::size_t index = plan_.size();
  plan_.push_back(PlanNode{});
  plan_[index].kind = node.kind;
  plan_[index].op = node.op;
  plan_[index].num_children = static_cast<int>(node.children.size());
  switch (node.kind) {
    case TagNode::Kind::kOperator:
    case TagNode::Kind::kWrapper:
      plan_[index].index = static_cast<int>(adjoinable_labels_.size());
      adjoinable_labels_.push_back(node.label);
      break;
    case TagNode::Kind::kSlot:
      plan_[index].index = static_cast<int>(slot_labels_.size());
      slot_labels_.push_back(node.label);
      break;
    case TagNode::Kind::kFoot:
      GMR_CHECK_MSG(!has_foot_, "auxiliary tree has two foot nodes");
      // The foot must carry the same non-terminal as the root (TAG
      // invariant).
      GMR_CHECK_MSG(node.label == root_->label,
                    "foot label must match root label");
      has_foot_ = true;
      break;
    case TagNode::Kind::kSystem:
    case TagNode::Kind::kLeaf:
      break;
  }
  for (const auto& child : node.children) IndexNode(*child);

  PlanNode& entry = plan_[index];
  entry.end = static_cast<int>(plan_.size());
  entry.address_end = static_cast<int>(adjoinable_labels_.size());
  // Lower the subtree once if no lexeme and no foot enters it; a malformed
  // node stays null and fails its check when a derivation lowers it.
  const expr::ExprPtr* first =
      entry.num_children > 0 ? &plan_[index + 1].lowered : nullptr;
  switch (node.kind) {
    case TagNode::Kind::kLeaf:
      entry.lowered = node.leaf;
      break;
    case TagNode::Kind::kWrapper:
      if (entry.num_children == 1) entry.lowered = *first;
      break;
    case TagNode::Kind::kOperator: {
      const int arity = expr::Arity(node.op);
      if (entry.num_children != arity || arity == 0 || *first == nullptr) {
        break;
      }
      if (arity == 1) {
        entry.lowered = expr::MakeUnary(node.op, *first);
        break;
      }
      const expr::ExprPtr& second =
          plan_[static_cast<std::size_t>(plan_[index + 1].end)].lowered;
      if (second != nullptr) {
        entry.lowered = expr::MakeBinary(node.op, *first, second);
      }
      break;
    }
    case TagNode::Kind::kSlot:
    case TagNode::Kind::kFoot:
    case TagNode::Kind::kSystem:
      break;
  }
  // Hash now, so lanes that share this node only ever read its hash.
  if (entry.lowered != nullptr) entry.lowered->StructuralHash();
}

ElementaryTree::Instance ElementaryTree::Instantiate() const {
  Instance instance;
  instance.root = root_->Clone();
  CollectPointers(instance.root.get(), &instance.adjoinable, &instance.slots,
                  &instance.foot);
  GMR_CHECK_EQ(instance.adjoinable.size(), adjoinable_labels_.size());
  GMR_CHECK_EQ(instance.slots.size(), slot_labels_.size());
  return instance;
}

void Adjoin(TagNodePtr* root, TagNode* target,
            ElementaryTree::Instance beta) {
  GMR_CHECK(beta.foot != nullptr);
  GMR_CHECK_MSG(beta.foot->label == target->label,
                "adjunction label mismatch");
  TagNodePtr* owner = FindOwner(root, target);
  GMR_CHECK_MSG(owner != nullptr, "adjunction target not in tree");

  // Step 1: disconnect the subtree rooted at the target.
  TagNodePtr detached = std::move(*owner);
  // Step 2: the auxiliary tree takes its place.
  *owner = std::move(beta.root);
  // Step 3: the detached subtree re-attaches at the foot.
  TagNodePtr* foot_owner = FindOwner(owner, beta.foot);
  GMR_CHECK(foot_owner != nullptr);
  *foot_owner = std::move(detached);
}

void SubstituteLexeme(TagNode* slot, expr::ExprPtr leaf) {
  GMR_CHECK(slot->kind == TagNode::Kind::kSlot);
  GMR_CHECK(leaf != nullptr);
  GMR_CHECK(leaf->IsLeaf());
  slot->kind = TagNode::Kind::kLeaf;
  slot->leaf = std::move(leaf);
}

bool IsCompleted(const TagNode& root) {
  if (root.kind == TagNode::Kind::kSlot ||
      root.kind == TagNode::Kind::kFoot) {
    return false;
  }
  for (const auto& child : root.children) {
    if (!IsCompleted(*child)) return false;
  }
  return true;
}

namespace {

expr::ExprPtr LowerNode(const TagNode& node) {
  switch (node.kind) {
    case TagNode::Kind::kLeaf:
      return node.leaf;
    case TagNode::Kind::kWrapper:
      GMR_CHECK_EQ(node.children.size(), 1u);
      return LowerNode(*node.children[0]);
    case TagNode::Kind::kOperator: {
      const int arity = expr::Arity(node.op);
      GMR_CHECK_EQ(static_cast<int>(node.children.size()), arity);
      if (arity == 1) return expr::MakeUnary(node.op, LowerNode(*node.children[0]));
      return expr::MakeBinary(node.op, LowerNode(*node.children[0]),
                              LowerNode(*node.children[1]));
    }
    case TagNode::Kind::kSystem:
      GMR_CHECK_MSG(false, "nested system node");
      return nullptr;
    case TagNode::Kind::kSlot:
      GMR_CHECK_MSG(false, "cannot lower an unfilled slot");
      return nullptr;
    case TagNode::Kind::kFoot:
      GMR_CHECK_MSG(false, "cannot lower a foot node");
      return nullptr;
  }
  return nullptr;
}

}  // namespace

std::vector<expr::ExprPtr> LowerToExpressions(const TagNode& root) {
  GMR_CHECK_MSG(IsCompleted(root), "tree has open slots or a foot node");
  std::vector<expr::ExprPtr> equations;
  if (root.kind == TagNode::Kind::kSystem) {
    equations.reserve(root.children.size());
    for (const auto& child : root.children) {
      equations.push_back(LowerNode(*child));
    }
  } else {
    equations.push_back(LowerNode(root));
  }
  return equations;
}

}  // namespace gmr::tag
