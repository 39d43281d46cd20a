#ifndef DESALIGN_COMMON_HOT_H_
#define DESALIGN_COMMON_HOT_H_

// Placement policy for hot loops. The speed of a tight loop can swing by
// tens of percent with where it falls relative to 32-byte code boundaries,
// and any edit elsewhere in the binary shifts that. Starting each hot
// function on a 64-byte cache line fixes its layout relative to those
// boundaries, so its speed depends on its own code only.
//
// Use it on the out-of-line function that holds the loop (not on a
// force-inlined helper, whose placement follows its caller):
//
//   DESALIGN_HOT int64_t NearestOf(const float* x, ...);
//   template <bool kFlag>
//   DESALIGN_HOT void MicroScalar(...);
#define DESALIGN_HOT [[gnu::aligned(64)]]

#endif  // DESALIGN_COMMON_HOT_H_
