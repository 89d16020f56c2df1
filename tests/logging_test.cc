#include "common/logging.h"

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

namespace falcon {
namespace {

// Redirects std::cerr for the lifetime of the object.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buf_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  CerrCapture(const CerrCapture&) = delete;
  CerrCapture& operator=(const CerrCapture&) = delete;
  std::string str() const { return buf_.str(); }

 private:
  std::ostringstream buf_;
  std::streambuf* old_;
};

int g_calls = 0;
std::string Expensive() {
  ++g_calls;
  return "expensive";
}

TEST(LoggingTest, DisabledLevelsDoNotEvaluateOperands) {
  ASSERT_EQ(GetLogLevel(), LogLevel::kWarning);  // The library default.
  g_calls = 0;
  CerrCapture capture;
  FALCON_LOG(Debug) << Expensive();
  FALCON_LOG(Info) << "x=" << Expensive();
  EXPECT_EQ(g_calls, 0);
  EXPECT_EQ(capture.str(), "");
}

TEST(LoggingTest, EnabledLevelsEvaluateOnceAndPrint) {
  g_calls = 0;
  CerrCapture capture;
  FALCON_LOG(Warning) << Expensive();
  EXPECT_EQ(g_calls, 1);
  EXPECT_NE(capture.str().find("[WARN logging_test.cc:"), std::string::npos);
  EXPECT_NE(capture.str().find("expensive"), std::string::npos);

  SetLogLevel(LogLevel::kDebug);
  FALCON_LOG(Debug) << Expensive();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(g_calls, 2);
}

TEST(LoggingTest, StatementBindsToItsOwnIf) {
  // The macro is one expression, so an unbraced if/else around it pairs
  // the else with the caller's if.
  g_calls = 0;
  CerrCapture capture;
  bool took_else = false;
  if (g_calls != 0)
    FALCON_LOG(Error) << Expensive();
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  EXPECT_EQ(g_calls, 0);
}

}  // namespace
}  // namespace falcon
