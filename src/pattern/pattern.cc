#include "pattern/pattern.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace dlacep {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPrimitive: return "PRIMITIVE";
    case OpKind::kSeq: return "SEQ";
    case OpKind::kConj: return "CONJ";
    case OpKind::kDisj: return "DISJ";
    case OpKind::kKleene: return "KC";
    case OpKind::kNeg: return "NEG";
  }
  return "?";
}

std::unique_ptr<PatternNode> PatternNode::Primitive(TypeId type, VarId var) {
  return PrimitiveAnyOf({type}, var);
}

std::unique_ptr<PatternNode> PatternNode::PrimitiveAnyOf(
    std::vector<TypeId> types, VarId var) {
  DLACEP_CHECK(!types.empty());
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
  auto node = std::make_unique<PatternNode>();
  node->kind = OpKind::kPrimitive;
  node->types = std::move(types);
  node->var = var;
  return node;
}

std::unique_ptr<PatternNode> PatternNode::Compose(
    OpKind kind, std::vector<std::unique_ptr<PatternNode>> children) {
  DLACEP_CHECK(kind == OpKind::kSeq || kind == OpKind::kConj ||
               kind == OpKind::kDisj);
  auto node = std::make_unique<PatternNode>();
  node->kind = kind;
  node->children = std::move(children);
  return node;
}

std::unique_ptr<PatternNode> PatternNode::Kleene(
    std::unique_ptr<PatternNode> child, size_t min_reps, size_t max_reps) {
  DLACEP_CHECK_GE(min_reps, 1u);
  DLACEP_CHECK_GE(max_reps, min_reps);
  auto node = std::make_unique<PatternNode>();
  node->kind = OpKind::kKleene;
  node->min_reps = min_reps;
  node->max_reps = max_reps;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PatternNode> PatternNode::Neg(
    std::unique_ptr<PatternNode> child) {
  auto node = std::make_unique<PatternNode>();
  node->kind = OpKind::kNeg;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PatternNode> PatternNode::Clone() const {
  auto node = std::make_unique<PatternNode>();
  node->kind = kind;
  node->types = types;
  node->var = var;
  node->min_reps = min_reps;
  node->max_reps = max_reps;
  node->children.reserve(children.size());
  for (const auto& child : children) node->children.push_back(child->Clone());
  return node;
}

Pattern::Pattern(std::shared_ptr<const Schema> schema,
                 std::unique_ptr<PatternNode> root,
                 std::vector<std::unique_ptr<Condition>> conditions,
                 std::vector<VarInfo> vars, WindowSpec window)
    : schema_(std::move(schema)),
      root_(std::move(root)),
      conditions_(std::move(conditions)),
      vars_(std::move(vars)),
      window_(window) {
  DLACEP_CHECK(schema_ != nullptr);
  DLACEP_CHECK(root_ != nullptr);
}

Pattern::Pattern(const Pattern& other)
    : schema_(other.schema_),
      root_(other.root_->Clone()),
      vars_(other.vars_),
      window_(other.window_) {
  conditions_.reserve(other.conditions_.size());
  for (const auto& c : other.conditions_) conditions_.push_back(c->Clone());
}

namespace {

bool IsPrimitiveSeq(const PatternNode& node) {
  if (node.kind != OpKind::kSeq) return false;
  for (const auto& child : node.children) {
    if (child->kind != OpKind::kPrimitive) return false;
  }
  return true;
}

Status ValidateSeqChildren(const PatternNode& seq) {
  const size_t n = seq.children.size();
  if (n == 0) return Status::InvalidArgument("empty SEQ");
  for (size_t i = 0; i < n; ++i) {
    const PatternNode& child = *seq.children[i];
    switch (child.kind) {
      case OpKind::kPrimitive:
        break;
      case OpKind::kKleene:
        if (child.children[0]->kind != OpKind::kPrimitive) {
          return Status::Unimplemented(
              "KC inside SEQ must wrap a primitive");
        }
        break;
      case OpKind::kNeg: {
        const PatternNode& inner = *child.children[0];
        if (inner.kind != OpKind::kPrimitive && !IsPrimitiveSeq(inner)) {
          return Status::Unimplemented(
              "NEG must wrap a primitive or a SEQ of primitives");
        }
        // NEG must be bracketed by positive positions.
        bool has_pos_before = false;
        for (size_t j = 0; j < i; ++j) {
          if (seq.children[j]->kind != OpKind::kNeg) has_pos_before = true;
        }
        bool has_pos_after = false;
        for (size_t j = i + 1; j < n; ++j) {
          if (seq.children[j]->kind != OpKind::kNeg) has_pos_after = true;
        }
        if (!has_pos_before || !has_pos_after) {
          return Status::InvalidArgument(
              "NEG must appear strictly between positive SEQ positions");
        }
        break;
      }
      default:
        return Status::Unimplemented(
            std::string("unsupported SEQ child: ") +
            OpKindName(child.kind));
    }
  }
  // At least one positive position.
  for (const auto& child : seq.children) {
    if (child->kind != OpKind::kNeg) return Status::Ok();
  }
  return Status::InvalidArgument("SEQ contains only NEG children");
}

}  // namespace

Status Pattern::Validate() const {
  const PatternNode& top = *root_;
  switch (top.kind) {
    case OpKind::kPrimitive:
      return Status::Ok();
    case OpKind::kSeq:
      return ValidateSeqChildren(top);
    case OpKind::kConj:
      if (top.children.empty()) {
        return Status::InvalidArgument("empty CONJ");
      }
      for (const auto& child : top.children) {
        if (child->kind != OpKind::kPrimitive) {
          return Status::Unimplemented("CONJ children must be primitives");
        }
      }
      return Status::Ok();
    case OpKind::kDisj:
      if (top.children.empty()) {
        return Status::InvalidArgument("empty DISJ");
      }
      for (const auto& child : top.children) {
        switch (child->kind) {
          case OpKind::kPrimitive:
            break;
          case OpKind::kSeq: {
            Status s = ValidateSeqChildren(*child);
            if (!s.ok()) return s;
            break;
          }
          case OpKind::kConj:
            for (const auto& grand : child->children) {
              if (grand->kind != OpKind::kPrimitive) {
                return Status::Unimplemented(
                    "CONJ children must be primitives");
              }
            }
            break;
          default:
            return Status::Unimplemented(
                std::string("unsupported DISJ branch: ") +
                OpKindName(child->kind));
        }
      }
      return Status::Ok();
    case OpKind::kKleene: {
      const PatternNode& inner = *top.children[0];
      if (inner.kind == OpKind::kPrimitive || IsPrimitiveSeq(inner)) {
        return Status::Ok();
      }
      return Status::Unimplemented(
          "top-level KC must wrap a primitive or a SEQ of primitives");
    }
    case OpKind::kNeg:
      return Status::InvalidArgument("NEG cannot be the whole pattern");
  }
  return Status::Internal("unreachable");
}

namespace {
void CollectTypes(const PatternNode& node, std::set<TypeId>* out) {
  if (node.kind == OpKind::kPrimitive) {
    out->insert(node.types.begin(), node.types.end());
    return;
  }
  for (const auto& child : node.children) CollectTypes(*child, out);
}

void CollectTypeSets(const PatternNode& node,
                     std::vector<std::vector<TypeId>>* out) {
  if (node.kind == OpKind::kPrimitive) {
    out->push_back(node.types);
    return;
  }
  for (const auto& child : node.children) CollectTypeSets(*child, out);
}

void RenderNode(const PatternNode& node, const Schema& schema,
                const std::vector<VarInfo>& vars, std::ostringstream* out) {
  switch (node.kind) {
    case OpKind::kPrimitive: {
      // Rendered as re-parseable PQL: ParsePattern(ToString()) must
      // accept the output (pinned by the grammar fuzz test), so every
      // type of an ANY position is spelled out.
      if (node.types.size() == 1) {
        *out << schema.TypeName(node.types[0]);
      } else {
        *out << "ANY(";
        for (size_t i = 0; i < node.types.size(); ++i) {
          if (i > 0) *out << ", ";
          *out << schema.TypeName(node.types[i]);
        }
        *out << ')';
      }
      if (node.var >= 0 && static_cast<size_t>(node.var) < vars.size()) {
        *out << ' ' << vars[static_cast<size_t>(node.var)].name;
      }
      return;
    }
    case OpKind::kKleene:
      *out << "KC(";
      RenderNode(*node.children[0], schema, vars, out);
      *out << "){" << node.min_reps << ".." << node.max_reps << "}";
      return;
    case OpKind::kNeg:
      *out << "NEG(";
      RenderNode(*node.children[0], schema, vars, out);
      *out << ")";
      return;
    default: {
      *out << OpKindName(node.kind) << '(';
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) *out << ", ";
        RenderNode(*node.children[i], schema, vars, out);
      }
      *out << ')';
      return;
    }
  }
}
}  // namespace

std::vector<TypeId> Pattern::ReferencedTypes() const {
  std::set<TypeId> types;
  CollectTypes(*root_, &types);
  return std::vector<TypeId>(types.begin(), types.end());
}

std::vector<std::vector<TypeId>> Pattern::PrimitiveTypeSets() const {
  std::vector<std::vector<TypeId>> sets;
  CollectTypeSets(*root_, &sets);
  return sets;
}

namespace {
// Conditions render variables as "v<id>"; substitute the declared names
// (longest ids first so "v12" is not clobbered by "v1").
std::string SubstituteVarNames(std::string text,
                               const std::vector<VarInfo>& vars) {
  for (size_t i = vars.size(); i-- > 0;) {
    std::string needle = "v";
    needle += std::to_string(i);
    needle += ".";
    std::string replacement = vars[i].name;
    replacement += ".";
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      text.replace(pos, needle.size(), replacement);
      pos += replacement.size();
    }
  }
  return text;
}
}  // namespace

std::string Pattern::ToString() const {
  std::ostringstream out;
  RenderNode(*root_, *schema_, vars_, &out);
  if (!conditions_.empty()) {
    out << " WHERE ";
    for (size_t i = 0; i < conditions_.size(); ++i) {
      if (i > 0) out << " AND ";
      out << SubstituteVarNames(conditions_[i]->ToString(schema_.get()),
                                vars_);
    }
  }
  out << " WITHIN " << window_.size
      << (window_.kind == WindowKind::kCount ? " EVENTS" : " TIME");
  return out.str();
}

}  // namespace dlacep
