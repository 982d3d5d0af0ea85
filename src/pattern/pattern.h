// The pattern model: operator AST + conditions + window.
//
// Supported operators (paper §2.1): SEQ (sequence), CONJ (conjunction),
// DISJ (disjunction), KC (Kleene closure), NEG (negation). Selection
// strategy is skip-till-any-match throughout (the paper's — and worst
// case — policy): partial matches may skip arbitrarily many events, so
// every conforming subset of the window is a distinct match.
//
// Supported shapes (these cover every query template in Tables 1 and 2;
// Validate() rejects anything deeper with kUnimplemented):
//   top level:  SEQ | CONJ | DISJ(SEQ...) | KC(SEQ) | KC(primitive)
//   SEQ child:  primitive | KC(primitive) | NEG(primitive) | NEG(SEQ)
//   CONJ child: primitive
//
// Kleene semantics: KC(primitive) binds 1..max_reps ordered events of the
// primitive's type to a single list variable. KC(SEQ(p1..pj)) binds
// 1..max_reps ordered repetitions of the inner sequence; each inner
// variable accumulates one event per repetition and conditions between
// the inner variables apply per-repetition (aligned lists).
//
// Negation semantics: NEG may appear strictly between two positive
// positions of a SEQ. A candidate match is discarded iff an occurrence of
// the negated sub-pattern exists strictly between the bracketing bound
// events *in the stream being evaluated*, satisfying all conditions that
// reference the negated variables.

#ifndef DLACEP_PATTERN_PATTERN_H_
#define DLACEP_PATTERN_PATTERN_H_

#include <memory>
#include <string>
#include <vector>

#include "pattern/condition.h"
#include "stream/schema.h"
#include "stream/window.h"

namespace dlacep {

enum class OpKind { kPrimitive, kSeq, kConj, kDisj, kKleene, kNeg };

const char* OpKindName(OpKind kind);

/// A node of the operator tree. Primitive nodes carry the accepted event
/// types and the variable they bind; Kleene nodes carry repetition
/// bounds.
///
/// A primitive may accept a *set* of types: the paper's query templates
/// bind positions to "the top-k most prevalent stock identifiers" (the
/// T_k sets of Table 1), i.e. any one of k concrete types.
struct PatternNode {
  OpKind kind = OpKind::kPrimitive;

  // Primitive only: accepted types (sorted, deduplicated) and the bound
  // variable.
  std::vector<TypeId> types;
  VarId var = -1;

  // Kleene only. The paper's KC is unbounded (1+); max_reps bounds the
  // enumeration so that skip-till-any-match stays finite, and is part of
  // the query definition in this implementation.
  size_t min_reps = 1;
  size_t max_reps = 3;

  std::vector<std::unique_ptr<PatternNode>> children;

  static std::unique_ptr<PatternNode> Primitive(TypeId type, VarId var);
  static std::unique_ptr<PatternNode> PrimitiveAnyOf(
      std::vector<TypeId> types, VarId var);
  static std::unique_ptr<PatternNode> Compose(
      OpKind kind, std::vector<std::unique_ptr<PatternNode>> children);
  static std::unique_ptr<PatternNode> Kleene(
      std::unique_ptr<PatternNode> child, size_t min_reps, size_t max_reps);
  static std::unique_ptr<PatternNode> Neg(std::unique_ptr<PatternNode> child);

  std::unique_ptr<PatternNode> Clone() const;
};

/// Metadata of a pattern variable.
struct VarInfo {
  std::string name;
  std::vector<TypeId> types;  ///< accepted event types
  bool kleene = false;   ///< binds a list (under a KC operator)
  bool negated = false;  ///< declared under a NEG operator
};

/// A complete pattern: operator tree + conditions + window.
class Pattern {
 public:
  Pattern(std::shared_ptr<const Schema> schema,
          std::unique_ptr<PatternNode> root,
          std::vector<std::unique_ptr<Condition>> conditions,
          std::vector<VarInfo> vars, WindowSpec window);

  Pattern(const Pattern& other);
  Pattern& operator=(const Pattern&) = delete;
  Pattern(Pattern&&) = default;

  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> schema_ptr() const { return schema_; }
  const PatternNode& root() const { return *root_; }
  const std::vector<std::unique_ptr<Condition>>& conditions() const {
    return conditions_;
  }
  const std::vector<VarInfo>& vars() const { return vars_; }
  size_t num_vars() const { return vars_.size(); }
  const WindowSpec& window() const { return window_; }

  /// Checks the structural restrictions documented above.
  Status Validate() const;

  /// The event types referenced anywhere in the pattern (positive and
  /// negated positions), deduplicated.
  std::vector<TypeId> ReferencedTypes() const;

  /// The type set of every primitive position (including negated ones),
  /// in tree order. Used by the featurizer to compact one-hot type
  /// encodings by membership signature (paper §4.3).
  std::vector<std::vector<TypeId>> PrimitiveTypeSets() const;

  /// Human-readable rendering for logs and reports.
  std::string ToString() const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<PatternNode> root_;
  std::vector<std::unique_ptr<Condition>> conditions_;
  std::vector<VarInfo> vars_;
  WindowSpec window_;
};

}  // namespace dlacep

#endif  // DLACEP_PATTERN_PATTERN_H_
