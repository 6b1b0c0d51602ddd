#include "core/hybrid_predictor.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "core/exec_context.h"
#include "core/motion_fit.h"
#include "mining/offline_miner.h"
#include "mining/transaction.h"

namespace hpm {

namespace {

/// Builds `*tables` for `patterns`, encodes them and packs them into the
/// serving arena; a pattern's id is its index in `patterns`.
StatusOr<FrozenTpt> PackPatterns(const std::vector<TrajectoryPattern>& patterns,
                                 const FrequentRegionSet& regions,
                                 const TptOptions& options,
                                 KeyTables* tables) {
  std::vector<LeafPayload> payloads;
  std::vector<int> consequences;
  payloads.reserve(patterns.size());
  consequences.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const TrajectoryPattern& p = patterns[i];
    payloads.push_back(LeafPayload{p.confidence, p.consequence,
                                   static_cast<int32_t>(i), p.support});
    consequences.push_back(p.consequence);
  }
  *tables = KeyTables::Build(regions, consequences);
  return FrozenTpt::Pack(tables->EncodePatterns(patterns, regions), payloads,
                         options.max_node_entries);
}

/// A hash of one key block and a consequence region: the §V-B update's
/// dedupe table key (equal hashes are confirmed word by word).
uint64_t BlockHash(const uint64_t* block, size_t stride, int region) {
  uint64_t hash = static_cast<uint64_t>(static_cast<uint32_t>(region)) *
                  0x9E3779B97F4A7C15ULL;
  for (size_t w = 0; w < stride; ++w) {
    hash = (hash ^ block[w]) * 0xFF51AFD7ED558CCDULL;
    hash ^= hash >> 32;
  }
  return hash;
}

}  // namespace

HybridPredictor::HybridPredictor(HybridPredictorOptions options,
                                 FrequentRegionSet regions,
                                 KeyTables key_tables, FrozenTpt tpt)
    : options_(options),
      regions_(std::move(regions)),
      key_tables_(std::move(key_tables)),
      tpt_(std::move(tpt)) {
  std::vector<char> concludes(regions_.NumRegions(), 0);
  for (const FrozenTpt::Hit& leaf : tpt_.Leaves()) {
    concludes[static_cast<size_t>(tpt_.payload(leaf).consequence_region)] = 1;
  }
  const Timestamp period = regions_.period();
  centre_begin_.assign(static_cast<size_t>(period) + 1, 0);
  for (const FrequentRegion& region : regions_.regions()) {
    if (!concludes[static_cast<size_t>(region.id)]) continue;
    consequence_centres_.push_back(region.center);
    ++centre_begin_[static_cast<size_t>(region.offset) + 1];
  }
  for (size_t t = 1; t < centre_begin_.size(); ++t) {
    centre_begin_[t] += centre_begin_[t - 1];
  }
}

Status ValidateQueryOptions(const HybridPredictorOptions& options) {
  if (options.distant_threshold <= 0 ||
      options.distant_threshold >= options.regions.period) {
    return Status::InvalidArgument(
        "distant threshold d must satisfy 0 < d < period");
  }
  if (options.time_relaxation < 0 ||
      options.time_relaxation > options.regions.period) {
    return Status::InvalidArgument("time relaxation must be in [0, period]");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::Train(
    const Trajectory& history, const HybridPredictorOptions& options) {
  HPM_RETURN_IF_ERROR(ValidateQueryOptions(options));
  HPM_INJECT_FAULT("core/train");

  Stopwatch timer;

  // The one-shot pass: discovery -> transactions -> Apriori.
  StatusOr<OfflineMineResult> offline =
      MineOffline(history, options.regions, options.mining);
  if (!offline.ok()) return offline.status();
  FrequentRegionSet& region_set = offline->discovery.region_set;
  AprioriResult& mined = offline->mined;

  KeyTables tables;
  StatusOr<FrozenTpt> frozen =
      PackPatterns(mined.patterns, region_set, options.tpt, &tables);
  if (!frozen.ok()) return frozen.status();

  auto predictor = std::unique_ptr<HybridPredictor>(
      new HybridPredictor(options, std::move(region_set), std::move(tables),
                          std::move(*frozen)));
  predictor->summary_.num_sub_trajectories = offline->transactions.size();
  predictor->summary_.num_frequent_regions =
      predictor->regions_.NumRegions();
  predictor->summary_.num_patterns = predictor->tpt_.size();
  predictor->summary_.mining_stats = mined.stats;
  predictor->summary_.tpt_frozen_bytes = predictor->tpt_.MemoryBytes();
  predictor->summary_.tpt_height = predictor->tpt_.Height();
  predictor->summary_.train_seconds = timer.ElapsedSeconds();
  return predictor;
}

std::vector<int> HybridPredictor::QueryPremise(
    const PredictiveQuery& query) const {
  const std::vector<TimedPoint>& recent = query.recent_movements;
  if (options_.premise_horizon > 0 &&
      recent.size() > static_cast<size_t>(options_.premise_horizon)) {
    const std::vector<TimedPoint> window(
        recent.end() - options_.premise_horizon, recent.end());
    return MapMovementsToRegions(regions_, window,
                                 options_.region_match_slack);
  }
  return MapMovementsToRegions(regions_, recent,
                               options_.region_match_slack);
}

namespace {

/// RankAndTake's total order (see its header comment).
bool RanksBefore(const ScoredHit& a, const ScoredHit& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.pattern_id < b.pattern_id;
}

}  // namespace

std::vector<Prediction> RankAndTake(std::vector<ScoredHit>* hits, int k,
                                    const FrequentRegionSet& regions) {
  const size_t take =
      std::min(hits->size(), static_cast<size_t>(std::max(k, 0)));
  std::partial_sort(hits->begin(), hits->begin() + take, hits->end(),
                    RanksBefore);
  std::vector<Prediction> ranked;
  ranked.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const ScoredHit& hit = (*hits)[i];
    const FrequentRegion& region =
        regions.Region(hit.payload->consequence_region);
    Prediction p;
    p.location = region.center;
    p.uncertainty = region.mbr;
    p.score = hit.score;
    p.source = PredictionSource::kPattern;
    p.pattern_id = hit.pattern_id;
    p.consequence_region = hit.payload->consequence_region;
    p.confidence = hit.confidence;
    ranked.push_back(p);
  }
  return ranked;
}

StatusOr<Prediction> HybridPredictor::MotionFunctionPredict(
    const PredictiveQuery& query) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  Prediction prediction;
  prediction.source = PredictionSource::kMotionFunction;
  if (query.motion != nullptr) {
    prediction.location =
        query.motion->Predict(query.query_time, query.context);
  } else {
    const MotionFit fit(&query.recent_movements, options_.rmf);
    prediction.location = fit.Predict(query.query_time, query.context);
  }
  return prediction;
}

OffsetInterval BackwardRoundInterval(Timestamp tq, Timestamp round,
                                     Timestamp t_eps, Timestamp period) {
  // 2 * round * t_eps >= period, without forming the product.
  if (round >= (period + 2 * t_eps - 1) / (2 * t_eps)) return {0, period - 1};
  // Widen the offset, not tq: the reach is below period / 2 here, so
  // nothing overflows whatever tq is.
  const Timestamp offset = ((tq % period) + period) % period;
  const Timestamp reach = round * t_eps;
  return {(offset - reach + period) % period, (offset + reach) % period};
}

Timestamp LastBackwardRound(Timestamp tq, Timestamp now, Timestamp t_eps) {
  // r + 1 >= ceil((tq - now) / t_eps), and r >= 1.
  return std::max<Timestamp>(1, (tq - now - 1) / t_eps);
}

CentreRuns HybridPredictor::CentresIn(OffsetInterval in) const {
  const auto run = [this](Timestamp lo, Timestamp hi) {
    const uint32_t begin = centre_begin_[static_cast<size_t>(lo)];
    const uint32_t end = centre_begin_[static_cast<size_t>(hi) + 1];
    return std::span<const Point>(consequence_centres_.data() + begin,
                                  end - begin);
  };
  if (in.lo <= in.hi) return {{run(in.lo, in.hi), {}}};
  return {{run(in.lo, regions_.period() - 1), run(0, in.hi)}};
}

std::optional<Timestamp> HybridPredictor::BackwardAnswerRound(
    Timestamp now, Timestamp tq) const {
  HPM_CHECK(tq > now);
  const Timestamp period = regions_.period();
  const Timestamp t_eps = RelaxationStep();
  const Timestamp last_round = LastBackwardRound(tq, now, t_eps);
  for (Timestamp round = 1; round <= last_round; ++round) {
    const CentreRuns centres =
        CentresIn(BackwardRoundInterval(tq, round, t_eps, period));
    if (!centres.runs[0].empty() || !centres.runs[1].empty()) return round;
    // This round holds every offset, so no wider one can hit.
    if (2 * round * t_eps >= period) break;
  }
  return std::nullopt;
}

CentreRuns HybridPredictor::PatternAnswerCentres(Timestamp now,
                                                 Timestamp tq) const {
  HPM_CHECK(tq > now);
  const Timestamp period = regions_.period();
  if (!IsDistant(tq - now)) {
    const Timestamp offset = tq % period;
    return CentresIn({offset, offset});
  }
  const std::optional<Timestamp> round = BackwardAnswerRound(now, tq);
  if (!round.has_value()) return {};
  return CentresIn(
      BackwardRoundInterval(tq, *round, RelaxationStep(), period));
}

StatusOr<std::vector<Prediction>> HybridPredictor::DegradedPredict(
    const PredictiveQuery& query, DegradedReason reason) const {
  HPM_CHECK(reason != DegradedReason::kNone);
  HPM_RETURN_IF_ERROR(ValidateQuery(query));
  return DegradedAnswer(query, reason);
}

StatusOr<std::vector<Prediction>> HybridPredictor::DegradedAnswer(
    const PredictiveQuery& query, DegradedReason reason) const {
  StatusOr<Prediction> fallback = MotionFunctionPredict(query);
  if (!fallback.ok()) return fallback.status();
  fallback->degraded = reason;
  return std::vector<Prediction>{*fallback};
}

StatusOr<std::vector<Prediction>> HybridPredictor::MotionFallback(
    const PredictiveQuery& query) const {
  // No qualified pattern: call the motion function (Algorithm 2 line 6 /
  // Algorithm 3 line 11).
  StatusOr<Prediction> fallback = MotionFunctionPredict(query);
  if (!fallback.ok()) return fallback.status();
  return std::vector<Prediction>{*fallback};
}

StatusOr<std::vector<Prediction>> HybridPredictor::Answer(
    const PredictiveQuery& query, bool backward) const {
  HPM_RETURN_IF_ERROR(ValidateQuery(query));

  // The pattern side is the expensive half; when it cannot be consulted
  // in time (or at all), serve the cheap RMF answer instead of failing.
  if (query.deadline.expired()) {
    return DegradedAnswer(query, DegradedReason::kDeadlineExceeded);
  }
  if (!HPM_FAULT_HIT("core/pattern_lookup").ok()) {
    return DegradedAnswer(query, DegradedReason::kPatternUnavailable);
  }

  // Scratch buffers come from the execution context's lane when the query
  // runs under the serving pipeline; direct callers get function-local
  // buffers and identical behaviour.
  PredictScratch local;
  PredictScratch* scratch = query.context != nullptr
                                ? &query.context->lane(query.lane)
                                : &local;
  return backward ? BackwardBody(query, scratch)
                  : ForwardBody(query, scratch);
}

StatusOr<std::vector<Prediction>> HybridPredictor::ForwardBody(
    const PredictiveQuery& query, PredictScratch* scratch) const {
  PredictScratch& s = *scratch;
  const Timestamp tq_offset = query.query_time % regions_.period();
  const std::vector<int> premise = QueryPremise(query);
  if (premise.empty() ||
      !key_tables_.EncodeQueryInto(premise, tq_offset, &s.query_key).ok()) {
    return MotionFallback(query);
  }

  TptSearchStats stats;
  tpt_.SearchInto(s.query_key, SearchMode::kPremiseAndConsequence,
                  &s.tpt_hits, &stats);
  if (query.context != nullptr) query.context->AddTptStats(stats);
  if (s.tpt_hits.empty()) return MotionFallback(query);

  s.candidates.clear();
  s.candidates.reserve(s.tpt_hits.size());
  for (const FrozenTpt::Hit& hit : s.tpt_hits) {
    // Equation 2: Sp = Sr * c (premise similarity and confidence are
    // independent evidences -> compound probability). The pattern's
    // premise is read in place from its arena block.
    const LeafPayload& payload = tpt_.payload(hit);
    const double sr = PremiseSimilarity(
        tpt_.premise_words(hit), s.query_key.premise().words(),
        tpt_.num_premise_words(), options_.weight_function);
    s.candidates.push_back({sr * payload.confidence, payload.confidence,
                            payload.pattern_id, &payload});
  }
  return RankAndTake(&s.candidates, query.k, regions_);
}

StatusOr<std::vector<Prediction>> HybridPredictor::BackwardBody(
    const PredictiveQuery& query, PredictScratch* scratch) const {
  PredictScratch& s = *scratch;
  const Timestamp period = regions_.period();
  const Timestamp tq_offset = query.query_time % period;
  const Timestamp t_eps = RelaxationStep();
  const double premise_penalty =
      std::min(1.0, static_cast<double>(options_.distant_threshold) /
                        static_cast<double>(query.PredictionLength()));

  // The widening stops at the first round whose interval holds a
  // consequence offset; no pattern anywhere before the interval hits the
  // current time means the motion function answers.
  const std::optional<Timestamp> round =
      BackwardAnswerRound(query.current_time, query.query_time);
  if (!round.has_value()) return MotionFallback(query);
  // Each widening step is another TPT search in the paper's loop, so the
  // deadline is re-checked before searching past round 1.
  if (*round > 1 && query.deadline.expired()) {
    return DegradedAnswer(query, DegradedReason::kDeadlineExceeded);
  }

  // The round's interval as period offsets (it may wrap), encoded into
  // the lane's key buffers.
  const std::vector<int> premise = QueryPremise(query);
  const OffsetInterval in =
      BackwardRoundInterval(query.query_time, *round, t_eps, period);
  if (in.lo <= in.hi) {
    key_tables_.EncodeQueryIntervalInto(premise, in.lo, in.hi, &s.query_key);
  } else {
    key_tables_.EncodeQueryIntervalInto(premise, in.lo, period - 1,
                                        &s.query_key);
    key_tables_.EncodeQueryIntervalInto(premise, 0, in.hi, &s.interval_key);
    s.query_key.UnionWith(s.interval_key);
  }
  TptSearchStats stats;
  tpt_.SearchInto(s.query_key, SearchMode::kConsequenceOnly, &s.tpt_hits,
                  &stats);
  if (query.context != nullptr) query.context->AddTptStats(stats);
  // The key tables number exactly the offsets the arena's patterns
  // conclude at, so a pattern concluding in the interval is a hit.
  HPM_CHECK(!s.tpt_hits.empty());

  // BQP searches on the consequence part alone, so the premise width is
  // checked here rather than by SearchInto.
  HPM_CHECK(s.query_key.premise().size() == tpt_.premise_bits());
  s.candidates.clear();
  s.candidates.reserve(s.tpt_hits.size());
  for (const FrozenTpt::Hit& hit : s.tpt_hits) {
    const LeafPayload& payload = tpt_.payload(hit);
    // The consequence offset t is the consequence region's offset:
    // KeyTables::EncodePatterns sets the one consequence bit at that
    // offset's time id, so this equals decoding the key's bit.
    const Timestamp t = regions_.Region(payload.consequence_region).offset;
    const double sc = ConsequenceSimilarity(t, tq_offset, t_eps);
    const double sr = PremiseSimilarity(
        tpt_.premise_words(hit), s.query_key.premise().words(),
        tpt_.num_premise_words(), options_.weight_function);
    // Equation 5: Sp = (Sr * d / (tq - tc) + Sc) * c — the premise
    // evidence is penalised as the prediction length grows.
    s.candidates.push_back({(sr * premise_penalty + sc) * payload.confidence,
                            payload.confidence, payload.pattern_id,
                            &payload});
  }
  return RankAndTake(&s.candidates, query.k, regions_);
}

StatusOr<std::vector<Prediction>> HybridPredictor::ForwardQuery(
    const PredictiveQuery& query) const {
  return Answer(query, /*backward=*/false);
}

StatusOr<std::vector<Prediction>> HybridPredictor::BackwardQuery(
    const PredictiveQuery& query) const {
  return Answer(query, /*backward=*/true);
}

std::vector<TrajectoryPattern> HybridPredictor::PatternTable() const {
  std::vector<TrajectoryPattern> table(tpt_.size());
  if (tpt_.empty()) return table;
  // Premise bits are region ids only because KeyTables sizes the premise
  // part to the region count and sets bit i for region i.
  HPM_CHECK(tpt_.premise_bits() == regions_.NumRegions());
  for (const FrozenTpt::Hit& leaf : tpt_.Leaves()) {
    const LeafPayload& payload = tpt_.payload(leaf);
    HPM_CHECK(payload.pattern_id >= 0 &&
              static_cast<size_t>(payload.pattern_id) < table.size());
    TrajectoryPattern& p = table[static_cast<size_t>(payload.pattern_id)];
    const uint64_t* premise = tpt_.premise_words(leaf);
    for (size_t w = 0; w < tpt_.num_premise_words(); ++w) {
      for (uint64_t bits = premise[w]; bits != 0; bits &= bits - 1) {
        p.premise.push_back(
            static_cast<int>(64 * w + std::countr_zero(bits)));
      }
    }
    p.consequence = payload.consequence_region;
    p.confidence = payload.confidence;
    p.support = payload.support;
  }
  return table;
}

StatusOr<std::vector<TrajectoryPattern>> HybridPredictor::MineFreshPatterns(
    const Trajectory& new_history, bool* new_consequence_offset) const {
  const Timestamp period = options_.regions.period;
  StatusOr<std::vector<Trajectory>> subs =
      new_history.DecomposePeriodic(period);
  if (!subs.ok()) return subs.status();

  // Map each new sub-trajectory onto the existing frequent regions —
  // region discovery stays anchored to the original training pass, as
  // the paper's insertion path assumes a stable region universe.
  std::vector<Transaction> transactions;
  transactions.reserve(subs->size());
  for (const Trajectory& sub : *subs) {
    transactions.emplace_back(
        MapPeriodPointsToVisits(regions_, sub.points(),
                                options_.region_match_slack),
        regions_.NumRegions());
  }

  StatusOr<AprioriResult> mined =
      MineTrajectoryPatterns(transactions, regions_, options_.mining);
  if (!mined.ok()) return mined.status();

  // Dedupe against the indexed rules. Only a rule concluding at an offset
  // the key tables know can repeat one; those are encoded like the
  // arena's leaves and put in an open-addressing table keyed by a hash of
  // (key block, consequence region), and one pass over the arena's leaves
  // marks each rule it holds.
  *new_consequence_offset = false;
  std::vector<TrajectoryPattern>& patterns = mined->patterns;
  std::vector<char> known(patterns.size(), 0);
  std::vector<TrajectoryPattern> probes;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Timestamp offset = regions_.Region(patterns[i].consequence).offset;
    if (key_tables_.TimeIdForOffset(offset) < 0) {
      *new_consequence_offset = true;
      continue;
    }
    known[i] = 1;
    probes.push_back(std::move(patterns[i]));
  }
  std::vector<char> indexed(probes.size(), 0);
  if (!probes.empty()) {
    const KeyBlocks keys = key_tables_.EncodePatterns(probes, regions_);
    const size_t stride = keys.stride();
    HPM_CHECK(stride ==
              tpt_.num_consequence_words() + tpt_.num_premise_words());
    // At most half full; a slot holds a probe index + 1, 0 when empty.
    const size_t mask = std::bit_ceil(2 * probes.size()) - 1;
    std::vector<uint32_t> slots(mask + 1, 0);
    std::vector<uint64_t> hashes(probes.size());
    for (size_t j = 0; j < probes.size(); ++j) {
      hashes[j] = BlockHash(keys.block(j), stride, probes[j].consequence);
      size_t slot = hashes[j] & mask;
      while (slots[slot] != 0) slot = (slot + 1) & mask;
      slots[slot] = static_cast<uint32_t>(j + 1);
    }
    for (const FrozenTpt::Hit& leaf : tpt_.Leaves()) {
      const uint64_t* block = tpt_.consequence_words(leaf);
      const int region = tpt_.payload(leaf).consequence_region;
      const uint64_t hash = BlockHash(block, stride, region);
      for (size_t slot = hash & mask; slots[slot] != 0;
           slot = (slot + 1) & mask) {
        const size_t j = slots[slot] - 1;
        if (hashes[j] == hash && probes[j].consequence == region &&
            std::equal(block, block + stride, keys.block(j))) {
          indexed[j] = 1;
        }
      }
    }
  }

  std::vector<TrajectoryPattern> fresh;
  for (size_t i = 0, j = 0; i < patterns.size(); ++i) {
    if (!known[i]) {
      fresh.push_back(std::move(patterns[i]));
      continue;
    }
    if (!indexed[j]) fresh.push_back(std::move(probes[j]));
    ++j;
  }
  return fresh;
}

StatusOr<std::unique_ptr<HybridPredictor>> HybridPredictor::WithNewHistory(
    const Trajectory& new_history) const {
  HPM_INJECT_FAULT("core/train");
  bool new_consequence_offset = false;
  StatusOr<std::vector<TrajectoryPattern>> fresh =
      MineFreshPatterns(new_history, &new_consequence_offset);
  if (!fresh.ok()) return fresh.status();

  KeyTables tables = key_tables_;
  StatusOr<FrozenTpt> frozen = FrozenTpt();
  if (new_consequence_offset) {
    // A new consequence offset grows the key universe (keys change
    // length), so the tables are rebuilt and every pattern re-encoded.
    std::vector<TrajectoryPattern> combined = PatternTable();
    combined.insert(combined.end(), std::make_move_iterator(fresh->begin()),
                    std::make_move_iterator(fresh->end()));
    frozen = PackPatterns(combined, regions_, options_.tpt, &tables);
  } else {
    // The arena's keys stay valid: its leaves in payload order (a packed
    // arena's leaf order, which Pack then need not sort), followed by the
    // fresh rules under the next pattern ids.
    const KeyBlocks added = tables.EncodePatterns(*fresh, regions_);
    KeyBlocks keys;
    keys.premise_bits = added.premise_bits;
    keys.consequence_bits = added.consequence_bits;
    const size_t stride = keys.stride();
    keys.words.reserve(tpt_.size() * stride + added.words.size());
    for (const FrozenTpt::Hit& leaf : tpt_.Leaves()) {
      const uint64_t* block = tpt_.consequence_words(leaf);
      keys.words.insert(keys.words.end(), block, block + stride);
    }
    keys.words.insert(keys.words.end(), added.words.begin(),
                      added.words.end());
    std::vector<LeafPayload> payloads = tpt_.payloads();
    payloads.reserve(payloads.size() + fresh->size());
    for (const TrajectoryPattern& p : *fresh) {
      payloads.push_back(
          LeafPayload{p.confidence, p.consequence,
                      static_cast<int32_t>(payloads.size()), p.support});
    }
    frozen = FrozenTpt::Pack(keys, payloads, options_.tpt.max_node_entries);
  }
  if (!frozen.ok()) return frozen.status();

  auto updated = std::unique_ptr<HybridPredictor>(new HybridPredictor(
      options_, regions_, std::move(tables), std::move(*frozen)));
  updated->summary_ = summary_;
  updated->summary_.num_patterns = updated->tpt_.size();
  updated->summary_.tpt_frozen_bytes = updated->tpt_.MemoryBytes();
  updated->summary_.tpt_height = updated->tpt_.Height();
  return updated;
}

StatusOr<std::vector<Prediction>> HybridPredictor::Predict(
    const PredictiveQuery& query) const {
  return Answer(query, IsDistant(query.PredictionLength()));
}

}  // namespace hpm
