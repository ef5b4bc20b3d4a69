#ifndef CCSIM_UTIL_MACROS_H_
#define CCSIM_UTIL_MACROS_H_

#include <cstdio>
#include <cstdlib>

/// \file
/// Invariant-checking macros. The simulator treats internal invariant
/// violations as fatal: a broken simulation state cannot produce meaningful
/// results, so we abort loudly instead of limping on.

/// 1 when built with AddressSanitizer, else 0. The recycling pools
/// (coroutine frames, messages, util::ObjectPool) step aside under ASan so
/// that a use after release is still reported.
#if defined(__SANITIZE_ADDRESS__)
#define CCSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCSIM_ASAN 1
#endif
#endif
#ifndef CCSIM_ASAN
#define CCSIM_ASAN 0
#endif

#define CCSIM_PREDICT_FALSE(x) (__builtin_expect(false || (x), false))
#define CCSIM_PREDICT_TRUE(x) (__builtin_expect(false || (x), true))

/// Fatal assertion, enabled in all build types.
#define CCSIM_CHECK(cond)                                                  \
  do {                                                                     \
    if (CCSIM_PREDICT_FALSE(!(cond))) {                                    \
      std::fprintf(stderr, "CCSIM_CHECK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

/// Fatal assertion with a printf-style message.
#define CCSIM_CHECK_MSG(cond, ...)                                         \
  do {                                                                     \
    if (CCSIM_PREDICT_FALSE(!(cond))) {                                    \
      std::fprintf(stderr, "CCSIM_CHECK failed at %s:%d: %s: ", __FILE__,  \
                   __LINE__, #cond);                                       \
      std::fprintf(stderr, __VA_ARGS__);                                   \
      std::fprintf(stderr, "\n");                                          \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

/// Debug-only assertion; compiled out in NDEBUG builds.
#ifdef NDEBUG
#define CCSIM_DCHECK(cond) \
  do {                     \
  } while (false)
#else
#define CCSIM_DCHECK(cond) CCSIM_CHECK(cond)
#endif

/// Marks a code path that must be unreachable.
#define CCSIM_UNREACHABLE()                                                  \
  do {                                                                       \
    std::fprintf(stderr, "CCSIM_UNREACHABLE reached at %s:%d\n", __FILE__,   \
                 __LINE__);                                                  \
    std::abort();                                                            \
  } while (false)

#endif  // CCSIM_UTIL_MACROS_H_
