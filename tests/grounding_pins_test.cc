// Output pins for incremental grounding: after every step of a DRed
// sequence, the CRC32C of the factor graph (GraphFingerprint), of every
// weight tying key, of var_info and of changed_vars(). The differential
// grounding tests compare the engine with itself (serial against
// parallel, incremental against Reground); these compare it with
// recorded outputs, so a change to how a round is computed — which rows
// are re-drafted, how join indexes are kept, in what order matches come
// out — fails here unless every graph stays byte-identical.
//
// A pin that moves is a behavior change, never a number to refresh in
// passing: variable ids, factor order and weight ids feed the sampler
// pins and every materialized chain.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/udf.h"
#include "grounding/grounder.h"
#include "storage/catalog.h"
#include "stream/stream.h"
#include "testdata/corpus_logs.h"
#include "testdata/logs_app.h"
#include "testdata/spouse_app.h"
#include "testdata/synthetic_programs.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

struct StepPin {
  uint32_t graph = 0;    ///< GraphFingerprint
  uint32_t keys = 0;     ///< every WeightKey, in weight-id order
  uint32_t vars = 0;     ///< var_info: relation, row id, liveness
  uint32_t changed = 0;  ///< changed_vars()

  bool operator==(const StepPin& o) const {
    return graph == o.graph && keys == o.keys && vars == o.vars && changed == o.changed;
  }
};

std::string Render(const StepPin& p) {
  return StrFormat("{%uu, %uu, %uu, %uu}", p.graph, p.keys, p.vars, p.changed);
}

uint32_t CrcOf(const std::string& bytes) { return Crc32c(bytes.data(), bytes.size()); }

StepPin PinOf(const Grounder& grounder) {
  StepPin pin;
  pin.graph = GraphFingerprint(grounder.graph());
  std::string keys;
  for (uint32_t w = 0; w < grounder.graph().num_weights(); ++w) {
    keys += grounder.WeightKey(w);
    keys += '\n';
  }
  pin.keys = CrcOf(keys);
  std::string vars;
  for (const VarInfo& info : grounder.var_info()) {
    vars += StrFormat("%s:%lld:%d\n", info.relation.c_str(),
                      static_cast<long long>(info.row_id), info.live ? 1 : 0);
  }
  pin.vars = CrcOf(vars);
  const std::vector<uint32_t>& changed = grounder.changed_vars();
  pin.changed = Crc32c(changed.data(), changed.size() * sizeof(uint32_t));
  return pin;
}

/// Compare a recorded sequence with its pins; on mismatch print the
/// whole observed sequence in source form.
void ExpectPins(const std::vector<StepPin>& got, const std::vector<StepPin>& want,
                const std::string& what) {
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) same = got[i] == want[i];
  if (same) return;
  std::string rendered;
  for (const StepPin& p : got) rendered += "      " + Render(p) + ",\n";
  size_t first = 0;
  while (first < got.size() && first < want.size() && got[first] == want[first]) ++first;
  ADD_FAILURE() << what << ": pins differ from step " << first << "; observed:\n"
                << rendered;
}

/// Random presence delta over the synthetic base relations: each live
/// row is deleted with probability `p_delete`, each row an earlier step
/// deleted is re-inserted (reviving its old row id) with `p_reinsert`.
std::map<std::string, DeltaSet> RandomDelta(Rng* rng, double p_delete, double p_reinsert,
                                            Catalog* catalog,
                                            std::map<std::string, std::vector<Tuple>>* removed) {
  std::map<std::string, DeltaSet> delta;
  for (const char* relation : {"Token", "Pair", "Link", "Q_Ev"}) {
    std::vector<Tuple>& gone = (*removed)[relation];
    std::vector<Tuple> still_gone;
    for (Tuple& t : gone) {
      if (rng->NextBernoulli(p_reinsert)) {
        delta[relation][t] = 1;
      } else {
        still_gone.push_back(std::move(t));
      }
    }
    gone = std::move(still_gone);
    for (const Tuple& t : (*catalog->GetTable(relation))->Scan()) {
      if (rng->NextBernoulli(p_delete)) {
        delta[relation][t] = -1;
        gone.push_back(t);
      }
    }
  }
  return delta;
}

/// changed_vars_test's synthetic DRed sequence: the initial grounding,
/// the workload's own batch, then five random delete/re-insert steps.
std::vector<StepPin> SyntheticSequence(uint64_t seed, size_t num_threads,
                                       size_t morsel_size) {
  SyntheticProgramOptions sopt;
  sopt.seed = seed;
  sopt.conflict_fraction = 0.2;
  auto workload = MakeSyntheticWorkload(sopt);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  if (!workload.ok()) return {};
  Catalog catalog;
  EXPECT_TRUE(PopulateCatalog(*workload, &catalog).ok());
  UdfRegistry udfs;
  RegisterBuiltinUdfs(&udfs);
  GroundingOptions gopt;
  gopt.num_threads = num_threads;
  gopt.morsel_size = morsel_size;
  gopt.holdout_fraction = 0.3;
  Grounder grounder(&catalog, &workload->program, &udfs, gopt);
  Status init = grounder.Initialize();
  EXPECT_TRUE(init.ok()) << init.ToString();
  if (!init.ok()) return {};

  std::vector<StepPin> pins = {PinOf(grounder)};
  std::map<std::string, std::vector<Tuple>> removed;
  Rng rng(seed * 7919 + 1);
  for (int step = 0; step < 6; ++step) {
    const std::map<std::string, DeltaSet> delta =
        step == 0 ? workload->delta : RandomDelta(&rng, 0.15, 0.4, &catalog, &removed);
    Status st = grounder.ApplyDeltas(delta);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return pins;
    pins.push_back(PinOf(grounder));
  }
  return pins;
}

std::vector<StepPin> SyntheticPins(uint64_t seed) {
  static const auto* pins = new std::map<uint64_t, std::vector<StepPin>>{
      {1, {
          {2520419730u, 634099108u, 2364104366u, 2218012649u},
          {2288982043u, 634099108u, 2463537142u, 2453083838u},
          {1476284084u, 661281582u, 3997769443u, 2547446552u},
          {2314284438u, 661281582u, 768536449u, 4228616956u},
          {4211916065u, 1838667140u, 1604584566u, 2071711310u},
          {3805037351u, 4078535390u, 1755461991u, 2434514375u},
          {4284138986u, 3043611675u, 2251841327u, 1460815556u},
      }},
      {2, {
          {2395649174u, 2746044028u, 3950874162u, 1691312791u},
          {2478988219u, 2846303548u, 520078567u, 3055153820u},
          {2676615406u, 3299908222u, 1192424063u, 2452750426u},
          {95057044u, 4066980636u, 287770401u, 1584101732u},
          {3246525866u, 1652024959u, 1684581781u, 3408308532u},
          {2681622737u, 2392339143u, 3674049978u, 3347154773u},
          {3971947935u, 2924634435u, 1108400529u, 2293559214u},
      }},
      {3, {
          {3685724080u, 1354112305u, 1985098061u, 4271804452u},
          {3879095073u, 3998938941u, 3303021490u, 3966431559u},
          {368704681u, 2933687917u, 3563646593u, 3822770483u},
          {4292151726u, 3887476261u, 3487933777u, 3425245354u},
          {1373646297u, 3633552202u, 3670536987u, 2820457953u},
          {2464223175u, 1961443400u, 2692957887u, 2044186511u},
          {235685696u, 3579152708u, 4146213080u, 565609989u},
      }},
      {4, {
          {3833616603u, 193167688u, 2494984980u, 980351206u},
          {432997502u, 2380310914u, 2302852943u, 2085606180u},
          {1490126302u, 4241660214u, 2884767830u, 1950486137u},
          {1940635470u, 3381971677u, 75538297u, 938149057u},
          {2116099719u, 1937547134u, 75538297u, 244500583u},
          {3586892854u, 2923441123u, 4256047712u, 1263402894u},
          {3827499436u, 2075362438u, 3077237444u, 3127197219u},
      }},
      {5, {
          {718211522u, 2164645887u, 468170407u, 685864259u},
          {2514906219u, 4024959521u, 3014516621u, 1973679587u},
          {3124735838u, 838907870u, 4012557997u, 2877747203u},
          {3995345707u, 237130434u, 2813183101u, 3810971299u},
          {3567056239u, 1212768576u, 3512805678u, 3823842278u},
          {2249667625u, 1609232591u, 4124953765u, 1736133864u},
          {923669498u, 2905504416u, 680945987u, 1109595443u},
      }},
      {6, {
          {2703606475u, 2990293701u, 2484870495u, 1016814332u},
          {1471529583u, 1068493103u, 255423502u, 3187353126u},
          {64003153u, 334956868u, 3676812150u, 2015466946u},
          {87375003u, 2982510512u, 3337234089u, 2355902332u},
          {3185432032u, 341773423u, 3475271209u, 72023924u},
          {3304427223u, 2987895142u, 925309521u, 2566003255u},
          {3912745147u, 1454614341u, 1798156753u, 579848965u},
      }},
      {7, {
          {157706604u, 3733581297u, 2364104366u, 2218012649u},
          {3614279376u, 3960568299u, 1725244844u, 3532440640u},
          {1596564127u, 4149777347u, 3053303944u, 3989157831u},
          {1145495309u, 3234660210u, 4036765287u, 2103469077u},
          {351928206u, 718607255u, 3358906927u, 3646184508u},
          {1574754886u, 1621489315u, 1045908820u, 3283654593u},
          {95559371u, 1255606498u, 316977026u, 3268111782u},
      }},
      {8, {
          {2521610264u, 640352934u, 1117902028u, 4064490570u},
          {2457379440u, 324067780u, 640359276u, 3675039137u},
          {2482123368u, 2789470617u, 292781539u, 14392178u},
          {3937126330u, 2949325604u, 381684876u, 4184114276u},
          {2078567795u, 1803310159u, 3310659297u, 478834990u},
          {61009678u, 3791538477u, 541469863u, 463464433u},
          {4236901478u, 2831520286u, 2990492181u, 3982659170u},
      }},
      {9, {
          {1067543962u, 942340587u, 1133361041u, 412075328u},
          {3083980733u, 4075337064u, 2065957231u, 863190348u},
          {3492904299u, 3455326007u, 2230807116u, 1658315689u},
          {2078440319u, 1621202505u, 47030447u, 1037844627u},
          {1189141522u, 3910411698u, 2998106536u, 1379146471u},
          {101847740u, 3642468380u, 2970240659u, 291502196u},
          {1415508465u, 2136369217u, 1283675092u, 3730860222u},
      }},
      {10, {
          {3045046922u, 1699368223u, 2494984980u, 980351206u},
          {1860887577u, 2349470150u, 447566841u, 3448525626u},
          {1483465629u, 676391009u, 3989390592u, 2501169889u},
          {977908975u, 2201897109u, 2063366086u, 72774121u},
          {1201020189u, 3739113976u, 1613595267u, 2190190014u},
          {1349598573u, 3303106114u, 1546331212u, 4216467063u},
          {2259490745u, 3780432761u, 262146161u, 139396464u},
      }},
      {11, {
          {2949917389u, 2667654679u, 1953884627u, 307181530u},
          {3458992212u, 1998318247u, 3265535704u, 4163513576u},
          {1859688829u, 2228117429u, 3906286649u, 892550977u},
          {3973792234u, 1542056951u, 946476797u, 3001211640u},
          {536986492u, 3548905546u, 1512111423u, 923392136u},
          {249383952u, 3540566620u, 537532179u, 1517821836u},
          {1026157515u, 3121902864u, 1908753542u, 1038340155u},
      }},
      {12, {
          {3055520256u, 2351307957u, 892312879u, 3632980780u},
          {3219067361u, 1741963598u, 3892379893u, 599427208u},
          {1059461650u, 3992257590u, 3868949647u, 1143369081u},
          {3181740609u, 2742883118u, 3446967350u, 450922491u},
          {2970807642u, 2987288909u, 3677200171u, 151288841u},
          {376003643u, 1647652765u, 2999335761u, 1060125027u},
          {569551843u, 3083572872u, 1965446527u, 3461222962u},
      }},
  };
  auto it = pins->find(seed);
  return it == pins->end() ? std::vector<StepPin>{} : it->second;
}

class SyntheticGroundingPinsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyntheticGroundingPinsTest, SerialDredSequenceMatchesPins) {
  const uint64_t seed = GetParam();
  ExpectPins(SyntheticSequence(seed, 1, 0), SyntheticPins(seed),
             StrFormat("seed %llu serial", static_cast<unsigned long long>(seed)));
}

TEST_P(SyntheticGroundingPinsTest, ParallelDredSequenceMatchesPins) {
  // Tiny morsels force multi-morsel drafts, evidence scans and delta
  // joins on this small corpus; the pins are the serial ones.
  const uint64_t seed = GetParam();
  ExpectPins(SyntheticSequence(seed, 3, 4), SyntheticPins(seed),
             StrFormat("seed %llu parallel", static_cast<unsigned long long>(seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticGroundingPinsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

PipelineOptions FastOptions() {
  PipelineOptions options;
  options.learn.epochs = 5;
  options.inference.full_burn_in = 5;
  options.inference.update_burn_in = 2;
  options.inference.num_samples = 10;
  options.holdout_fraction = 0.2;
  options.strategy = PipelineOptions::Strategy::kSampling;
  options.num_threads = 1;
  return options;
}

TEST(SpouseGroundingPinsTest, DocumentBatchesMatchPins) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 70;
  corpus_opts.corruption = 0.1;
  corpus_opts.seed = 21;
  const SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  SpouseCorpus first = corpus;
  first.documents.resize(30);
  auto pipeline = MakeSpousePipeline(first, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DeepDivePipeline& p = **pipeline;
  ASSERT_TRUE(p.Run().ok());

  // Four batches of ten documents, each with KB edits that flip distant
  // labels: one married pair leaves the KB and the previous one returns.
  std::vector<StepPin> pins = {PinOf(*p.grounder())};
  Rng rng(23);
  std::vector<std::pair<std::string, std::string>> removed;
  for (size_t next = 30; next < corpus.documents.size(); next += 10) {
    for (size_t d = next; d < next + 10; ++d) {
      ASSERT_TRUE(p.AddDocument(corpus.documents[d].first, corpus.documents[d].second).ok());
    }
    for (const auto& [a, b] : removed) {
      p.QueueDelta("KbMarried", Tuple({Value::String(a), Value::String(b)}), 1);
    }
    removed = {corpus.kb_married[rng.NextBounded(corpus.kb_married.size())]};
    p.QueueDelta("KbMarried",
                 Tuple({Value::String(removed[0].first), Value::String(removed[0].second)}),
                 -1);
    Status st = p.Run();
    ASSERT_TRUE(st.ok()) << st.ToString();
    pins.push_back(PinOf(*p.grounder()));
  }
  const std::vector<StepPin> want = {
      {1386851241u, 2478376383u, 985327949u, 213588230u},
      {2574191644u, 1248854127u, 3002172862u, 1005606274u},
      {909086387u, 139910843u, 452102102u, 2055701597u},
      {4081766493u, 2842514432u, 4253054122u, 1341534888u},
      {3906005183u, 4073245028u, 554832650u, 1845103333u},
  };
  ExpectPins(pins, want, "spouse batches");
}

TEST(LogsGroundingPinsTest, StreamRoundsMatchPins) {
  LogsCorpusOptions corpus_opts;
  corpus_opts.num_windows = 48;
  corpus_opts.seed = 77;
  const LogsCorpus corpus = GenerateLogsCorpus(corpus_opts);
  // Split the stream at line boundaries: the first half is the initial
  // load, the rest arrives in five rounds.
  std::vector<std::string> chunks(6);
  const size_t n = corpus.lines.size();
  size_t begin = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    const size_t end = c == 0 ? n / 2 : n / 2 + (n - n / 2) * c / (chunks.size() - 1);
    size_t pos = 0;
    for (size_t i = 0; i < end; ++i) {
      const size_t eol = corpus.text.find('\n', pos);
      const size_t stop = eol == std::string::npos ? corpus.text.size() : eol + 1;
      if (i >= begin) chunks[c].append(corpus.text, pos, stop - pos);
      pos = stop;
    }
    begin = end;
  }
  LogsCorpus head = corpus;
  head.text = chunks[0];
  auto pipeline = MakeLogsPipeline(head, FastOptions(), StreamOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DeepDivePipeline& p = **pipeline;
  ASSERT_TRUE(p.Run().ok());

  std::vector<StepPin> pins = {PinOf(*p.grounder())};
  for (size_t c = 1; c < chunks.size(); ++c) {
    StreamIngester ingester(StreamOptions(), MakeLogsStreamExtractor());
    StringSource source(chunks[c]);
    ASSERT_TRUE(p.IngestStream(&ingester, &source).ok());
    // Alternate KB edits: the first known cause leaves and returns.
    const auto& kb = corpus.kb_causes.front();
    p.QueueDelta("KbCauses", Tuple({Value::String(kb.first), Value::String(kb.second)}),
                 c % 2 == 1 ? -1 : 1);
    Status st = p.Run();
    ASSERT_TRUE(st.ok()) << st.ToString();
    pins.push_back(PinOf(*p.grounder()));
  }
  const std::vector<StepPin> want = {
      {1362914830u, 641173336u, 2651766244u, 275279334u},
      {2905889740u, 641173336u, 1600789979u, 1491183674u},
      {624847875u, 641173336u, 1524269301u, 533458478u},
      {2699595175u, 641173336u, 1524269301u, 3993648051u},
      {338545830u, 641173336u, 1524269301u, 4044074664u},
      {596945299u, 641173336u, 3706678270u, 4123999985u},
  };
  ExpectPins(pins, want, "logs rounds");
}

}  // namespace
}  // namespace dd
