// Semirings for algebraic graph computation.
//
// The paper positions SpGEMM as a key kernel of the GraphBLAS (Section 1);
// GraphBLAS generalises the multiply from (+, *) to an arbitrary semiring
// (reduce, combine). The tiled algorithm is agnostic to the semiring: its
// symbolic phases (steps 1-2) only look at structure, and step 3 just
// needs `reduce` in place of += and `combine` in place of *.
//
// A semiring here is a stateless policy type:
//   static T identity();            // the reduce identity ("zero")
//   static T combine(T a, T b);     // the "multiply"
//   static T reduce(T a, T b);      // the "add" (associative, commutative)
#pragma once

#include <algorithm>
#include <limits>

namespace tsg {

/// The arithmetic semiring (+, *): ordinary SpGEMM.
template <class T>
struct PlusTimes {
  static T identity() { return T{}; }
  static T combine(T a, T b) { return a * b; }
  static T reduce(T a, T b) { return a + b; }
};

/// The tropical (min, +) semiring: path lengths. C[i][j] = min over k of
/// A[i][k] + B[k][j] — one relaxation step of all-pairs shortest paths.
template <class T>
struct MinPlus {
  static T identity() { return std::numeric_limits<T>::infinity(); }
  static T combine(T a, T b) { return a + b; }
  static T reduce(T a, T b) { return std::min(a, b); }
};

/// The boolean (or, and) semiring: reachability. Values are 0/1 in T.
template <class T>
struct OrAnd {
  static T identity() { return T{0}; }
  static T combine(T a, T b) { return (a != T{0} && b != T{0}) ? T{1} : T{0}; }
  static T reduce(T a, T b) { return (a != T{0} || b != T{0}) ? T{1} : T{0}; }
};

/// (max, *) semiring: e.g. most-reliable-path probabilities.
template <class T>
struct MaxTimes {
  static T identity() { return T{0}; }
  static T combine(T a, T b) { return a * b; }
  static T reduce(T a, T b) { return std::max(a, b); }
};

/// The semiring instances the SpGEMM pipeline is compiled for: each
/// semiring above over double and float. The explicit instantiations of the
/// pipeline (step2.cpp, step3.cpp, spgemm_context.cpp) expand X(S, T) once
/// per instance; a product over any other semiring does not link.
#define TSG_FOR_EACH_SEMIRING(X)                                                    \
  X(PlusTimes<double>, double) X(PlusTimes<float>, float) X(MinPlus<double>, double) \
  X(MinPlus<float>, float) X(OrAnd<double>, double) X(OrAnd<float>, float)           \
  X(MaxTimes<double>, double) X(MaxTimes<float>, float)

}  // namespace tsg
