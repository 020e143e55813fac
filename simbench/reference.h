// The reference loop: a fixed discrete-event kernel the benchmark times next
// to the simulator, so that host times can be corrected for the machine's
// momentary speed.
//
// On shared machines the memory system is loaded by other tenants, and the
// simulator's host time drifts by tens of percent over minutes while a pure
// compute loop does not. The reference loop has the simulator's shape (a
// binary-heap event queue over many actors, heap-allocated closures, a
// growing hash set), so it slows down with the simulator. It lives in the
// benchmark, so a change to the simulator cannot change it.

#ifndef DRACONIS_SIMBENCH_REFERENCE_H_
#define DRACONIS_SIMBENCH_REFERENCE_H_

namespace draconis::simbench {

// The reference loop's time on the machine the benchmark was written on
// (README.md). Corrected host seconds are raw seconds scaled by
// kReferenceNominalS / (the reference loop's time measured next to them).
inline constexpr double kReferenceNominalS = 0.08;

// Runs the reference loop once and returns its host seconds.
double TimeReferenceLoop();

// `raw_s` host seconds, corrected to a machine that runs the reference loop
// in kReferenceNominalS; `ref_s` is the loop's time measured next to them.
inline double CorrectedSeconds(double raw_s, double ref_s) {
  return raw_s * kReferenceNominalS / ref_s;
}

}  // namespace draconis::simbench

#endif  // DRACONIS_SIMBENCH_REFERENCE_H_
