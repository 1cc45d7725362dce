// Unit tests for the support library: Status/Result, byte serialization,
// CRC, fixed-capacity containers, string utilities, strong ids, inline
// callbacks, shared buffers and the logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "support/bytes.hpp"
#include "support/crc.hpp"
#include "support/fixed_vector.hpp"
#include "support/ids.hpp"
#include "support/inplace_function.hpp"
#include "support/log.hpp"
#include "support/shared_bytes.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace dacm::support {
namespace {

// --- Status / Result ----------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("the thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "the thing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: the thing");
}

TEST(StatusTest, EveryErrorCodeHasAName) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 41;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 41);
  EXPECT_EQ(result.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = InvalidArgument("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  auto owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

Status FailsThrough() {
  DACM_RETURN_IF_ERROR(Timeout("inner"));
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThrough().code(), ErrorCode::kTimeout);
}

Result<int> Doubles(Result<int> input) {
  DACM_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagatesBothWays) {
  EXPECT_EQ(*Doubles(21), 42);
  EXPECT_EQ(Doubles(Corrupted("x")).status().code(), ErrorCode::kCorrupted);
}

Result<int> ParseDigit(char c) {
  if (c < '0' || c > '9') return InvalidArgument(std::string("not a digit: ") + c);
  return c - '0';
}

Result<int> SumDigits(const std::string& text) {
  int total = 0;
  for (char c : text) {
    DACM_ASSIGN_OR_RETURN(int digit, ParseDigit(c));
    total += digit;
  }
  return total;
}

Status ValidateDigits(const std::string& text) {
  DACM_RETURN_IF_ERROR(SumDigits(text).status());
  return OkStatus();
}

TEST(ResultTest, ErrorsPropagateThroughMultipleFrames) {
  EXPECT_EQ(*SumDigits("123"), 6);
  // The innermost diagnostic survives two propagation hops untouched.
  const Status status = ValidateDigits("12x3");
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "not a digit: x");
}

TEST(ResultTest, ValueOrFallsBackOnlyOnError) {
  EXPECT_EQ(Result<int>(7).value_or(-1), 7);
  EXPECT_EQ(Result<int>(Timeout("late")).value_or(-1), -1);
}

// --- bytes -----------------------------------------------------------------------

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI32(-42);
  writer.WriteI64(-1234567890123ll);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(*reader.ReadU8(), 0xAB);
  EXPECT_EQ(*reader.ReadU16(), 0xBEEF);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*reader.ReadI32(), -42);
  EXPECT_EQ(*reader.ReadI64(), -1234567890123ll);
  EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, StringAndBlobRoundTrip) {
  ByteWriter writer;
  writer.WriteString("hello");
  writer.WriteString("");
  writer.WriteBlob(ToBytes("raw\0data"));

  ByteReader reader(writer.bytes());
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadString(), "");
  EXPECT_FALSE(reader.exhausted());
  EXPECT_TRUE(reader.ReadBlob().ok());
}

TEST(BytesTest, TruncationDetected) {
  ByteWriter writer;
  writer.WriteU32(7);
  ByteReader reader(std::span<const std::uint8_t>(writer.bytes().data(), 2));
  auto result = reader.ReadU32();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCorrupted);
}

TEST(BytesTest, StringLengthBeyondBufferDetected) {
  ByteWriter writer;
  writer.WriteU32(1000);  // claims 1000 chars, none follow
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(reader.ReadString().ok());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  ByteWriter writer;
  writer.WriteVarU32(GetParam());
  ByteReader reader(writer.bytes());
  EXPECT_EQ(*reader.ReadVarU32(), GetParam());
  EXPECT_TRUE(reader.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0u, 1u, 127u, 128u, 129u, 16383u, 16384u,
                                           0xFFFFu, 0xFFFFFFu, 0xFFFFFFFFu));

TEST(BytesTest, VarintOverlongRejected) {
  Bytes overlong = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};  // 6 continuation bytes
  ByteReader reader(overlong);
  EXPECT_FALSE(reader.ReadVarU32().ok());
}

TEST(BytesTest, ZeroCopyViewsAliasTheBuffer) {
  ByteWriter writer;
  writer.WriteString("view me");
  writer.WriteBlob(ToBytes("blob"));
  ByteReader reader(writer.bytes());

  auto s = reader.ReadStringView();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "view me");
  EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(s->data()),
            writer.bytes().data() + 4);  // no copy: points into the buffer

  auto b = reader.ReadBlobView();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ToString(*b), "blob");
  EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, ViewTruncationDetected) {
  ByteWriter writer;
  writer.WriteU32(100);  // claims 100 bytes, none follow
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(reader.ReadStringView().ok());
  ByteReader reader2(writer.bytes());
  EXPECT_FALSE(reader2.ReadBlobView().ok());
}

TEST(BytesTest, ReserveDoesNotChangeContents) {
  ByteWriter writer;
  writer.WriteU16(0xABCD);
  writer.Reserve(1000);
  writer.WriteU16(0x1234);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(*reader.ReadU16(), 0xABCD);
  EXPECT_EQ(*reader.ReadU16(), 0x1234);
  EXPECT_TRUE(reader.exhausted());
}

TEST(BytesTest, LittleEndianScalarHelpersRoundTrip) {
  std::uint8_t buf[8];
  StoreLeU16(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(LoadLeU16(buf), 0xBEEF);
  StoreLeU32(buf, 0xDEADBEEFu);
  EXPECT_EQ(buf[3], 0xDE);
  EXPECT_EQ(LoadLeU32(buf), 0xDEADBEEFu);
  StoreLeU64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(LoadLeU64(buf), 0x0123456789ABCDEFull);
}

// --- crc ------------------------------------------------------------------------------

TEST(CrcTest, KnownVector) {
  // CRC-32/ISO-HDLC("123456789") = 0xCBF43926.
  const Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
  EXPECT_EQ(Crc32Bytewise(data), 0xCBF43926u);
}

TEST(CrcTest, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(CrcTest, IncrementalMatchesOneShot) {
  const Bytes data = ToBytes("hello crc world");
  std::uint32_t crc = 0;
  crc = Crc32Update(crc, std::span<const std::uint8_t>(data.data(), 5));
  crc = Crc32Update(crc, std::span<const std::uint8_t>(data.data() + 5, data.size() - 5));
  // Incremental with the reflected algorithm composes through the inverted
  // register; the helper folds that in, so the results must agree.
  EXPECT_EQ(crc, Crc32(data));
}

TEST(CrcTest, StandardKnownAnswerVectors) {
  // Published CRC-32/ISO-HDLC check values.
  EXPECT_EQ(Crc32(ToBytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(ToBytes("abc")), 0x352441C2u);
  EXPECT_EQ(Crc32(ToBytes("message digest")), 0x20159D7Fu);
  EXPECT_EQ(Crc32(ToBytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
  const Bytes zeros(32, 0x00);
  EXPECT_EQ(Crc32(zeros), 0x190A55ADu);
  const Bytes ones(32, 0xFF);
  EXPECT_EQ(Crc32(ones), 0xFF6CAB0Bu);
}

TEST(CrcTest, IncrementalIgnoresEmptyChunks) {
  const Bytes data = ToBytes("chunked");
  std::uint32_t crc = Crc32Update(0, {});
  crc = Crc32Update(crc, data);
  crc = Crc32Update(crc, {});
  EXPECT_EQ(crc, Crc32(data));
}

TEST(CrcTest, SingleBitFlipChangesCrc) {
  Bytes data = ToBytes("payload payload payload");
  const std::uint32_t original = Crc32(data);
  for (std::size_t bit = 0; bit < data.size() * 8; bit += 17) {
    Bytes mutated = data;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(mutated), original) << "bit " << bit;
  }
}

// --- FixedVector ------------------------------------------------------------------------

TEST(FixedVectorTest, PushPopWithinCapacity) {
  FixedVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.push_back(1));
  EXPECT_TRUE(v.push_back(2));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 2);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
}

TEST(FixedVectorTest, RejectsGrowthPastCapacity) {
  FixedVector<int, 2> v;
  EXPECT_TRUE(v.push_back(1));
  EXPECT_TRUE(v.push_back(2));
  EXPECT_TRUE(v.full());
  EXPECT_FALSE(v.push_back(3));
  EXPECT_EQ(v.size(), 2u);
}

TEST(FixedVectorTest, DestroysElements) {
  int alive = 0;
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) { ++*counter; }
    Probe(const Probe& other) : counter(other.counter) { ++*counter; }
    ~Probe() { --*counter; }
  };
  {
    FixedVector<Probe, 4> v;
    v.emplace_back(&alive);
    v.emplace_back(&alive);
    EXPECT_EQ(alive, 2);
    v.pop_back();
    EXPECT_EQ(alive, 1);
  }
  EXPECT_EQ(alive, 0);
}

TEST(FixedVectorTest, EmplaceBackReturnsNullWhenFull) {
  FixedVector<std::string, 2> v;
  ASSERT_NE(v.emplace_back("a"), nullptr);
  ASSERT_NE(v.emplace_back("b"), nullptr);
  EXPECT_EQ(v.emplace_back("c"), nullptr);
  // The failed emplace leaves size and contents untouched.
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
}

TEST(FixedVectorTest, OverflowingPushConstructsNothing) {
  int alive = 0;
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) { ++*counter; }
    Probe(const Probe& other) : counter(other.counter) { ++*counter; }
    ~Probe() { --*counter; }
  };
  FixedVector<Probe, 2> v;
  v.emplace_back(&alive);
  v.emplace_back(&alive);
  ASSERT_EQ(alive, 2);
  Probe extra(&alive);
  EXPECT_FALSE(v.push_back(extra));
  EXPECT_EQ(v.emplace_back(&alive), nullptr);
  // No stray construction or destruction from the rejected inserts.
  EXPECT_EQ(alive, 3);
}

TEST(FixedVectorTest, ClearAllowsRefillToFullCapacity) {
  FixedVector<int, 3> v;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(v.push_back(i));
  v.clear();
  EXPECT_TRUE(v.empty());
  for (int i = 10; i < 13; ++i) ASSERT_TRUE(v.push_back(i));
  EXPECT_TRUE(v.full());
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v.back(), 12);
}

TEST(FixedVectorTest, MoveDrainsTheSource) {
  FixedVector<std::string, 2> v;
  v.push_back("payload");
  FixedVector<std::string, 2> moved = std::move(v);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): specified behaviour
  EXPECT_TRUE(v.push_back("reusable"));
}

TEST(FixedVectorTest, CopyAndMove) {
  FixedVector<std::string, 3> v;
  v.push_back("a");
  v.push_back("b");
  FixedVector<std::string, 3> copy = v;
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy[1], "b");
  FixedVector<std::string, 3> moved = std::move(v);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[0], "a");
}

// --- string_util -------------------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsRuns) {
  auto fields = SplitWhitespace("  one \t two\nthree  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "three");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("pirte.vm", "pirte"));
  EXPECT_FALSE(StartsWith("pi", "pirte"));
}

struct VersionCase {
  const char* a;
  const char* b;
  int expected;  // sign
};

class VersionCompare : public ::testing::TestWithParam<VersionCase> {};

TEST_P(VersionCompare, Ordering) {
  const auto& param = GetParam();
  const int result = CompareVersions(param.a, param.b);
  if (param.expected < 0) {
    EXPECT_LT(result, 0);
  } else if (param.expected == 0) {
    EXPECT_EQ(result, 0);
  } else {
    EXPECT_GT(result, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VersionCompare,
    ::testing::Values(VersionCase{"1.0", "1.0", 0}, VersionCase{"1.0", "1.1", -1},
                      VersionCase{"2.0", "1.9", 1}, VersionCase{"1.0", "1.0.1", -1},
                      VersionCase{"1.10", "1.9", 1}, VersionCase{"1", "1.0", 0},
                      VersionCase{"0.9", "1.0", -1}));

// --- StrongId ---------------------------------------------------------------------------

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongIdTest, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, FooId::Invalid());
}

TEST(StrongIdTest, ComparesWithinType) {
  EXPECT_LT(FooId(1), FooId(2));
  EXPECT_EQ(FooId(3), FooId(3));
  static_assert(!std::is_convertible_v<FooId, BarId>,
                "distinct id spaces must not convert");
}

TEST(StrongIdTest, Hashable) {
  std::unordered_map<FooId, int> map;
  map[FooId(5)] = 50;
  EXPECT_EQ(map.at(FooId(5)), 50);
}

// --- InplaceFunction ------------------------------------------------------------

TEST(InplaceFunctionTest, InvokesSmallCapturesInline) {
  int hits = 0;
  InplaceFunction<void()> fn([&hits]() { ++hits; });
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  // A reference capture is well under the budget.
  using F = InplaceFunction<void()>;
  struct Small {
    void* a;
    void* b;
    void operator()() const {}
  };
  static_assert(F::fits_inline<Small>);
}

TEST(InplaceFunctionTest, ReturnsValuesAndTakesArguments) {
  InplaceFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InplaceFunctionTest, LargeCapturesTakeHeapEscapeHatch) {
  std::array<std::uint64_t, 16> big{};  // 128 B: past the inline budget
  big[15] = 42;
  InplaceFunction<std::uint64_t()> fn([big]() { return big[15]; });
  using F = InplaceFunction<std::uint64_t()>;
  static_assert(!F::fits_inline<decltype([big]() { return big[15]; })>);
  EXPECT_EQ(fn(), 42u);
  // Heap payload survives moves.
  InplaceFunction<std::uint64_t()> moved(std::move(fn));
  EXPECT_EQ(moved(), 42u);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): emptied, by contract
}

TEST(InplaceFunctionTest, MoveTransfersOwnershipExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InplaceFunction<void()> a([counter]() { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    InplaceFunction<void()> b(std::move(a));
    EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
    EXPECT_FALSE(a);                    // NOLINT(bugprone-use-after-move)
    b();
    InplaceFunction<void()> c;
    c = std::move(b);
    c();
  }
  EXPECT_EQ(counter.use_count(), 1);  // all wrappers released their capture
  EXPECT_EQ(*counter, 2);
}

TEST(InplaceFunctionTest, CapturesMoveOnlyState) {
  auto owned = std::make_unique<int>(7);
  InplaceFunction<int()> fn([owned = std::move(owned)]() { return *owned; });
  EXPECT_EQ(fn(), 7);
}

// --- SharedBytes ----------------------------------------------------------------

TEST(SharedBytesTest, AdoptsBufferWithoutCopyAndSharesByRefcount) {
  Bytes original = ToBytes("payload");
  const std::uint8_t* storage = original.data();
  SharedBytes shared(std::move(original));
  EXPECT_EQ(shared.data(), storage);  // adopted, not copied
  EXPECT_EQ(shared.size(), 7u);
  SharedBytes alias = shared;
  EXPECT_EQ(alias.data(), storage);
  EXPECT_EQ(shared.use_count(), 2);
}

TEST(SharedBytesTest, ConvertsToPlainBufferViewsForLegacyHandlers) {
  SharedBytes shared(ToBytes("abc"));
  // The two implicit conversions receive handlers rely on.
  const Bytes& as_bytes = shared;
  std::span<const std::uint8_t> as_span = shared;
  EXPECT_EQ(as_bytes.size(), 3u);
  EXPECT_EQ(as_span.data(), shared.data());
  EXPECT_EQ(ToString(shared), "abc");  // span conversion at a call site
}

TEST(SharedBytesTest, EmptyHandleIsSafe) {
  SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  const Bytes& as_bytes = empty;
  EXPECT_TRUE(as_bytes.empty());
  SharedBytes from_empty_vector((Bytes()));
  EXPECT_TRUE(from_empty_vector.empty());
}

TEST(SharedBytesTest, CopyFactoryDeepCopies) {
  Bytes original = ToBytes("xyz");
  SharedBytes copy = SharedBytes::Copy(original);
  EXPECT_NE(copy.data(), original.data());
  original[0] = '!';
  EXPECT_EQ(ToString(copy), "xyz");
}

// --- Log ----------------------------------------------------------------------

TEST(LogTest, EnabledIsALevelThresholdCheck) {
  Log::SetLevel(LogLevel::kWarn);
  EXPECT_FALSE(Log::Enabled(LogLevel::kDebug));
  EXPECT_FALSE(Log::Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Log::Enabled(LogLevel::kWarn));
  EXPECT_TRUE(Log::Enabled(LogLevel::kError));
  Log::SetLevel(LogLevel::kOff);
  EXPECT_FALSE(Log::Enabled(LogLevel::kError));
}

// Enabled() is a single relaxed atomic load (hot loops hit disabled
// DACM_LOG sites), and the logger is process-wide, so level changes and
// sink swaps must be safe while other threads are logging.  Under TSan
// this test is the race detector for the logger's level/sink paths.
TEST(LogTest, SinkSwapsAreSafeWhileWorkersLog) {
  Log::SetLevel(LogLevel::kInfo);
  std::atomic<std::uint64_t> sink_a_lines{0};
  std::atomic<std::uint64_t> sink_b_lines{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&stop, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        DACM_LOG_INFO("log-test") << "worker " << w << " line";
        DACM_LOG_DEBUG("log-test") << "suppressed";  // below the level
      }
    });
  }
  // Swap sinks (and flip the level) under live traffic; every line lands
  // in whichever sink was installed when Write took the sink mutex.
  for (int swap = 0; swap < 50; ++swap) {
    Log::SetSink([&sink_a_lines](LogLevel, std::string_view component,
                                 std::string_view) {
      if (component == "log-test") {
        sink_a_lines.fetch_add(1, std::memory_order_relaxed);
      }
    });
    Log::SetSink([&sink_b_lines](LogLevel, std::string_view component,
                                 std::string_view) {
      if (component == "log-test") {
        sink_b_lines.fetch_add(1, std::memory_order_relaxed);
      }
    });
    Log::SetLevel(swap % 2 == 0 ? LogLevel::kInfo : LogLevel::kWarn);
  }
  Log::SetLevel(LogLevel::kInfo);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();
  Log::SetSink(nullptr);
  Log::SetLevel(LogLevel::kOff);
  // The b-sink was installed last and kept running for 20 ms of live
  // logging, so it must have seen traffic.
  EXPECT_GT(sink_b_lines.load(), 0u);
}

}  // namespace
}  // namespace dacm::support
