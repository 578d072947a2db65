#ifndef PS_INTERP_VALUE_H
#define PS_INTERP_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "fortran/ast.h"

namespace ps::interp {

/// A scalar runtime value. INTEGER is kept exact; REAL and DOUBLE PRECISION
/// share the double representation (the distinction never matters for the
/// analyses this interpreter validates).
struct Value {
  enum class Kind { Int, Real, Logical };
  Kind kind = Kind::Real;
  long long i = 0;
  double r = 0.0;
  bool b = false;

  static Value ofInt(long long v) { return {Kind::Int, v, 0.0, false}; }
  static Value ofReal(double v) { return {Kind::Real, 0, v, false}; }
  static Value ofLogical(bool v) { return {Kind::Logical, 0, 0.0, v}; }

  [[nodiscard]] double asReal() const {
    return kind == Kind::Int ? static_cast<double>(i) : r;
  }
  [[nodiscard]] long long asInt() const {
    return kind == Kind::Int ? i : static_cast<long long>(r);
  }
  [[nodiscard]] bool asLogical() const { return b; }

  [[nodiscard]] std::string str() const;
};

/// Backing storage for one variable (scalar = extent 1). Cells live in
/// stable-addressed slabs so pass-by-reference aliasing can hold raw cell
/// references.
struct Storage {
  fortran::TypeKind type = fortran::TypeKind::Real;
  /// Creation order within one machine run (dense, from 1): the identity
  /// the race detector and the trace recorder index their per-cell tables
  /// by. Unlike a heap address it is never reused by a later call frame,
  /// so two storage lifetimes can never alias.
  std::uint64_t serial = 0;
  std::vector<double> realCells;
  std::vector<long long> intCells;
  std::vector<char> logicalCells;
  /// Column-major extents and lower bounds per dimension (empty = scalar).
  std::vector<long long> extents;
  std::vector<long long> lowerBounds;

  [[nodiscard]] bool isInt() const {
    return type == fortran::TypeKind::Integer;
  }
  [[nodiscard]] bool isLogical() const {
    return type == fortran::TypeKind::Logical;
  }
  [[nodiscard]] std::size_t size() const {
    return isInt() ? intCells.size()
                   : (isLogical() ? logicalCells.size() : realCells.size());
  }
  void resize(std::size_t n) {
    if (isInt()) {
      intCells.assign(n, 0);
    } else if (isLogical()) {
      logicalCells.assign(n, 0);
    } else {
      realCells.assign(n, 0.0);
    }
  }
  [[nodiscard]] Value load(std::size_t at) const {
    if (isInt()) return Value::ofInt(intCells[at]);
    if (isLogical()) return Value::ofLogical(logicalCells[at] != 0);
    return Value::ofReal(realCells[at]);
  }
  void store(std::size_t at, const Value& v) {
    if (isInt()) {
      intCells[at] = v.asInt();
    } else if (isLogical()) {
      logicalCells[at] = v.asLogical() ? 1 : 0;
    } else {
      realCells[at] = v.asReal();
    }
  }
};

/// A reference into storage: the storage object plus a flat element offset.
/// Formal parameters bind to (caller storage, offset) — Fortran
/// pass-by-reference, including array-element actuals like CALL F(A(1,J)).
struct CellRef {
  Storage* storage = nullptr;
  std::size_t offset = 0;
};

}  // namespace ps::interp

#endif  // PS_INTERP_VALUE_H
