#include "serve_sim/kv.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/topology.hpp"
#include "moe/model_config.hpp"

namespace hybrimoe::serve_sim {
namespace {

KvSpec enabled_spec(double budget_mb = 1.0, double bytes_per_token = 512.0) {
  KvSpec spec;
  spec.budget_mb = budget_mb;
  spec.bytes_per_token = bytes_per_token;
  return spec;
}

// -- Spec grammar ---------------------------------------------------------

TEST(KvSpecTest, DefaultIsDisabledAndValid) {
  const KvSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_NO_THROW(spec.validate());
}

TEST(KvSpecTest, ValidateRejectsNegativeFields) {
  KvSpec spec = enabled_spec();
  spec.budget_mb = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = enabled_spec();
  spec.bytes_per_token = -0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(KvSpecTest, ParseRoundTripsEveryMode) {
  for (const auto mode : {AdmissionMode::Queue, AdmissionMode::Reject,
                          AdmissionMode::EvictRequeue}) {
    KvSpec spec = enabled_spec(64.0, 2048.0);
    spec.mode = mode;
    EXPECT_EQ(parse_kv_spec(to_json(spec)), spec);
  }
}

TEST(KvSpecTest, UnknownKeyFailsWithSuggestion) {
  try {
    (void)parse_kv_spec(R"({"budget": 64})");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("budget_mb"), std::string::npos)
        << e.what();
  }
}

TEST(KvSpecTest, UnknownAdmissionNameFailsWithSuggestion) {
  try {
    (void)admission_from_name("quue");
    FAIL() << "unknown admission mode accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)parse_kv_spec(R"({"admission": "drop"})"),
               std::invalid_argument);
}

TEST(KvSpecTest, ParseRejectsNegativeBudget) {
  EXPECT_THROW((void)parse_kv_spec(R"({"budget_mb": -3})"), std::invalid_argument);
}

TEST(KvSpecTest, AdmissionNamesRoundTrip) {
  EXPECT_EQ(admission_from_name("queue"), AdmissionMode::Queue);
  EXPECT_EQ(admission_from_name("reject"), AdmissionMode::Reject);
  EXPECT_EQ(admission_from_name("evict"), AdmissionMode::EvictRequeue);
  EXPECT_STREQ(to_string(AdmissionMode::EvictRequeue), "evict");
}

// -- Derived footprints ---------------------------------------------------

TEST(KvSpecTest, ModelBytesPerTokenIsTwoFp16RowsPerLayer) {
  const auto model = moe::ModelConfig::tiny();  // 4 layers, d_model 32
  EXPECT_DOUBLE_EQ(model_kv_bytes_per_token(model), 2.0 * 4.0 * 32.0 * 2.0);
}

TEST(KvSpecTest, DerivedBudgetScalesWithAccelerators) {
  const auto single = hw::Topology::a6000_xeon10();
  EXPECT_DOUBLE_EQ(derived_kv_budget_mb(single), kKvMbPerAccelerator);
}

// -- Accountant ledger ----------------------------------------------------

TEST(KvAccountantTest, ExactFitIsAdmissible) {
  KvAccountant ledger(enabled_spec(1.0));  // 1e6 bytes
  EXPECT_TRUE(ledger.fits(1.0e6));
  EXPECT_FALSE(ledger.fits(1.0e6 + 1.0));
  EXPECT_FALSE(ledger.impossible(1.0e6));
  EXPECT_TRUE(ledger.impossible(1.0e6 + 1.0));
}

TEST(KvAccountantTest, ReserveReleaseTracksUsageAndPeak) {
  KvAccountant ledger(enabled_spec(1.0));
  ledger.reserve(4.0e5);
  ledger.reserve(5.0e5);
  EXPECT_DOUBLE_EQ(ledger.used(), 9.0e5);
  EXPECT_DOUBLE_EQ(ledger.peak(), 9.0e5);
  EXPECT_FALSE(ledger.fits(2.0e5));
  ledger.release(5.0e5);
  EXPECT_DOUBLE_EQ(ledger.used(), 4.0e5);
  EXPECT_DOUBLE_EQ(ledger.peak(), 9.0e5);  // high-water mark sticks
  EXPECT_TRUE(ledger.fits(6.0e5));
  ledger.release(4.0e5);
  EXPECT_DOUBLE_EQ(ledger.used(), 0.0);
}

TEST(KvAccountantTest, RequiresEnabledResolvedSpec) {
  EXPECT_THROW(KvAccountant{KvSpec{}}, std::invalid_argument);
  KvSpec unresolved;
  unresolved.budget_mb = 1.0;  // bytes_per_token left at 0
  EXPECT_THROW(KvAccountant{unresolved}, std::invalid_argument);
}

}  // namespace
}  // namespace hybrimoe::serve_sim
