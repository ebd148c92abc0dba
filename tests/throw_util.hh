/**
 * @file
 * Shared EXPECT_THROW-with-message helper for the typed-error tests.
 *
 * Every failure that is not a simulator bug throws a SimError
 * subclass (src/common/error.hh, docs/robustness.md); these macros
 * assert both the exception type and a substring of its message.
 */

#ifndef AMSC_TESTS_THROW_UTIL_HH
#define AMSC_TESTS_THROW_UTIL_HH

#include <gtest/gtest.h>

#include <string>

/** Expect @p stmt to throw @p ExType whose what() contains @p sub. */
#define AMSC_EXPECT_THROW_MSG(stmt, ExType, sub)                      \
    do {                                                              \
        bool amsc_caught_ = false;                                    \
        try {                                                         \
            stmt;                                                     \
        } catch (const ExType &amsc_e_) {                             \
            amsc_caught_ = true;                                      \
            EXPECT_NE(std::string(amsc_e_.what()).find(sub),          \
                      std::string::npos)                              \
                << "message was: " << amsc_e_.what();                 \
        }                                                             \
        EXPECT_TRUE(amsc_caught_)                                     \
            << "expected " #ExType " from: " #stmt;                   \
    } while (0)

#endif // AMSC_TESTS_THROW_UTIL_HH
