#include <gtest/gtest.h>

#include <fstream>

#include "core/gmr.h"
#include "core/model_io.h"
#include "core/revision_report.h"
#include "core/river_grammar.h"
#include "expr/print.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/synthetic.h"
#include "tag/generate.h"

namespace gmr::core {
namespace {

namespace e = gmr::expr;
namespace r = gmr::river;

std::vector<std::string> RiverParameterNames() {
  std::vector<std::string> names;
  for (int slot = 0; slot < r::kNumParameters; ++slot) {
    names.push_back(r::ParameterName(slot));
  }
  return names;
}

TEST(ModelIoTest, SaveLoadRoundTripPreservesSemantics) {
  SavedModel model;
  model.equations = r::ManualProcess();
  model.parameters = gp::PriorMeans(r::RiverParameterPriors());
  model.parameters[r::kCUA] = 1.2345678901234567;

  const std::string path = ::testing::TempDir() + "/gmr_model_test.txt";
  ASSERT_TRUE(SaveModel(path, model, RiverParameterNames()));

  SavedModel loaded;
  std::string error;
  ASSERT_TRUE(LoadModel(path, r::RiverSymbols(), &loaded, &error)) << error;
  ASSERT_EQ(loaded.equations.size(), model.equations.size());
  ASSERT_EQ(loaded.parameters.size(), model.parameters.size());
  for (std::size_t i = 0; i < model.parameters.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.parameters[i], model.parameters[i]);
  }

  // Semantic equivalence: identical accuracy on a dataset.
  river::SyntheticConfig config;
  config.years = 2;
  config.train_years = 1;
  const river::RiverDataset dataset = river::GenerateNakdongLike(config);
  const auto a = EvaluateAccuracy(model.equations, model.parameters, dataset,
                                  river::SimulationConfig{});
  const auto b = EvaluateAccuracy(loaded.equations, loaded.parameters,
                                  dataset, river::SimulationConfig{});
  EXPECT_DOUBLE_EQ(a.train_rmse, b.train_rmse);
  EXPECT_DOUBLE_EQ(a.test_rmse, b.test_rmse);
}

TEST(ModelIoTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/gmr_model_bad.txt";
  {
    std::ofstream out(path);
    out << "equation x +\n";
  }
  SavedModel model;
  std::string error;
  EXPECT_FALSE(LoadModel(path, r::RiverSymbols(), &model, &error));
  EXPECT_FALSE(LoadModel("/nonexistent/nope", r::RiverSymbols(), &model,
                         &error));
}

TEST(ModelIoTest, LoadRejectsUnknownParameter) {
  const std::string path = ::testing::TempDir() + "/gmr_model_badparam.txt";
  {
    std::ofstream out(path);
    out << "# gmr-model v1\nequation B_Phy\nparam C_Bogus = 1\n";
  }
  SavedModel model;
  std::string error;
  EXPECT_FALSE(LoadModel(path, r::RiverSymbols(), &model, &error));
  EXPECT_NE(error.find("C_Bogus"), std::string::npos);
}

TEST(ModelIoTest, LoadRejectsTrailingTokensAndRepeatedParameters) {
  const std::string path = ::testing::TempDir() + "/gmr_model_badline.txt";
  const auto load = [&path](const std::string& params, std::string* error) {
    {
      std::ofstream out(path);
      out << "# gmr-model v1\nequation B_Phy\n" << params;
    }
    SavedModel model;
    return LoadModel(path, r::RiverSymbols(), &model, error);
  };
  std::string error;
  ASSERT_TRUE(load("param C_UA = 0.05\nparam C_P = 0.1\n", &error)) << error;
  for (const char* params :
       {"param C_UA = 0.05 0.9\n", "param C_UA = 0.1 junk\n"}) {
    error.clear();
    EXPECT_FALSE(load(params, &error)) << params;
    EXPECT_NE(error.find("bad param line"), std::string::npos) << error;
  }
  error.clear();
  EXPECT_FALSE(load("param C_UA = 0.05\nparam C_UA = 0.9\n", &error));
  EXPECT_EQ(error, "duplicate parameter: C_UA");
}

TEST(RevisionReportTest, NamesAdjunctionSitesAndBetas) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  Rng rng(5);
  tag::DerivationPtr genotype = tag::GrowRandom(
      knowledge.grammar, knowledge.seed_alpha_index, 6, rng);
  const RevisionSummary summary =
      SummarizeRevisions(knowledge.grammar, *genotype);
  EXPECT_EQ(summary.num_revisions(), genotype->NodeCount() - 1);
  for (const RevisionEntry& entry : summary.entries) {
    // Every site is an extension-point symbol; every beta has a name.
    EXPECT_TRUE(entry.site_label.rfind("ExtC", 0) == 0 ||
                entry.site_label.rfind("ExtE", 0) == 0)
        << entry.site_label;
    EXPECT_FALSE(entry.beta_name.empty());
  }
  const std::string text = summary.ToString();
  if (summary.num_revisions() > 0) {
    EXPECT_NE(text.find("<-"), std::string::npos);
  }
}

TEST(RevisionReportTest, SeedAloneHasNoRevisions) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  tag::DerivationNode seed;
  seed.tree_index = knowledge.seed_alpha_index;
  const RevisionSummary summary =
      SummarizeRevisions(knowledge.grammar, seed);
  EXPECT_EQ(summary.num_revisions(), 0u);
  EXPECT_TRUE(summary.ToString().empty());
}

}  // namespace
}  // namespace gmr::core
