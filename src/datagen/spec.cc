#include "datagen/spec.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "errorgen/injector.h"

namespace falcon {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash (53 mantissa bits).
double ToUnit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

/// Stateless inverse-CDF Zipf index in [0, n) — the same approximation as
/// Rng::NextSkewed, driven by a hashed uniform instead of an RNG stream so
/// any cell can be sampled independently of all others.
uint64_t ZipfIndex(uint64_t n, double skew, double u) {
  if (n <= 1) return 0;
  double x = (skew == 1.0)
                 ? std::pow(static_cast<double>(n), u)
                 : std::pow((std::pow(static_cast<double>(n), 1.0 - skew) -
                             1.0) * u + 1.0,
                            1.0 / (1.0 - skew));
  uint64_t idx = static_cast<uint64_t>(x) - (x >= 1.0 ? 1 : 0);
  return idx >= n ? n - 1 : idx;
}

std::string MakeValue(const std::string& prefix, uint64_t index) {
  return prefix + "_" + std::to_string(index);
}

StatusOr<SpecField::Dist> ParseDist(const std::string& s) {
  if (s == "unique") return SpecField::Dist::kUnique;
  if (s == "uniform") return SpecField::Dist::kUniform;
  if (s == "zipf") return SpecField::Dist::kZipf;
  if (s == "dictionary") return SpecField::Dist::kDictionary;
  if (s == "derived") return SpecField::Dist::kDerived;
  return Status::InvalidArgument("unknown field dist \"" + s + "\"");
}

/// Reads the count `key` of `obj` (`def` when absent). A negative count is
/// rejected rather than wrapped to a size near 2^64.
StatusOr<size_t> Count(const JsonValue& obj, std::string_view key,
                       int64_t def) {
  int64_t v = obj.GetInt(key, def);
  if (v < 0) {
    return Status::InvalidArgument(std::string(key) +
                                   " must not be negative");
  }
  return static_cast<size_t>(v);
}

StatusOr<std::vector<std::string>> StringArray(const JsonValue& v,
                                               const char* what) {
  if (!v.is_array() || v.items().empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a non-empty array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : v.items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(std::string(what) +
                                     " must contain only strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

StatusOr<GeneratorSpec> GeneratorSpec::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("spec must be a JSON object");
  }
  GeneratorSpec spec;
  spec.name = json.GetString("name", "spec");
  spec.seed = static_cast<uint64_t>(json.GetInt("seed", 1));
  int64_t rows = json.GetInt("rows", 1000);
  if (rows <= 0) return Status::InvalidArgument("rows must be positive");
  spec.rows = static_cast<size_t>(rows);

  const JsonValue* fields = json.Find("fields");
  if (fields == nullptr || !fields->is_array() || fields->items().empty()) {
    return Status::InvalidArgument("spec needs a non-empty fields array");
  }
  for (const JsonValue& f : fields->items()) {
    if (!f.is_object()) {
      return Status::InvalidArgument("each field must be a JSON object");
    }
    SpecField field;
    field.name = f.GetString("name");
    if (field.name.empty()) {
      return Status::InvalidArgument("field missing name");
    }
    FALCON_ASSIGN_OR_RETURN(field.dist,
                            ParseDist(f.GetString("dist", "uniform")));
    FALCON_ASSIGN_OR_RETURN(field.domain, Count(f, "domain", 10));
    // Zipf defaults to the classic exponent; dictionaries default to
    // uniform draws unless a skew is spelled out.
    field.skew = f.GetDouble(
        "skew", field.dist == SpecField::Dist::kZipf ? 1.0 : 0.0);
    field.prefix = f.GetString("prefix", field.name);
    if (field.dist == SpecField::Dist::kDictionary) {
      const JsonValue* values = f.Find("values");
      if (values == nullptr) {
        return Status::InvalidArgument("dictionary field " + field.name +
                                       " needs a values array");
      }
      FALCON_ASSIGN_OR_RETURN(field.values,
                              StringArray(*values, "dictionary values"));
      field.domain = field.values.size();
    }
    if (field.dist == SpecField::Dist::kDerived) {
      const JsonValue* parents = f.Find("parents");
      if (parents == nullptr) {
        return Status::InvalidArgument("derived field " + field.name +
                                       " needs a parents array");
      }
      FALCON_ASSIGN_OR_RETURN(field.parents,
                              StringArray(*parents, "parents"));
    }
    spec.fields.push_back(std::move(field));
  }

  if (const JsonValue* errors = json.Find("errors"); errors != nullptr) {
    if (!errors->is_object()) {
      return Status::InvalidArgument("errors must be a JSON object");
    }
    FALCON_ASSIGN_OR_RETURN(spec.errors.format_patterns,
                            Count(*errors, "format_patterns", 0));
    FALCON_ASSIGN_OR_RETURN(spec.errors.random_errors,
                            Count(*errors, "random_errors", 0));
    spec.errors.seed = static_cast<uint64_t>(errors->GetInt("seed", 1));
    if (const JsonValue* rules = errors->Find("rules"); rules != nullptr) {
      if (!rules->is_array()) {
        return Status::InvalidArgument("errors.rules must be an array");
      }
      for (const JsonValue& r : rules->items()) {
        if (!r.is_object()) {
          return Status::InvalidArgument("each rule must be a JSON object");
        }
        SpecRuleError rule;
        const JsonValue* lhs = r.Find("lhs");
        if (lhs == nullptr) {
          return Status::InvalidArgument("rule missing lhs");
        }
        FALCON_ASSIGN_OR_RETURN(rule.lhs, StringArray(*lhs, "rule lhs"));
        rule.rhs = r.GetString("rhs");
        if (rule.rhs.empty()) {
          return Status::InvalidArgument("rule missing rhs");
        }
        FALCON_ASSIGN_OR_RETURN(rule.patterns, Count(r, "patterns", 1));
        FALCON_ASSIGN_OR_RETURN(rule.errors_per_pattern,
                                Count(r, "errors_per_pattern", 10));
        spec.errors.rules.push_back(std::move(rule));
      }
    }
  }

  if (const JsonValue* append = json.Find("append"); append != nullptr) {
    if (!append->is_object()) {
      return Status::InvalidArgument("append must be a JSON object");
    }
    FALCON_ASSIGN_OR_RETURN(spec.append.batches,
                            Count(*append, "batches", 0));
    FALCON_ASSIGN_OR_RETURN(spec.append.rows_per_batch,
                            Count(*append, "rows_per_batch", 0));
    spec.append.error_rate = append->GetDouble("error_rate", 0.0);
    if (spec.append.error_rate < 0.0 || spec.append.error_rate > 1.0) {
      return Status::InvalidArgument("append.error_rate must be in [0, 1]");
    }
  }
  return spec;
}

StatusOr<GeneratorSpec> GeneratorSpec::Parse(std::string_view text) {
  FALCON_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  return FromJson(json);
}

StatusOr<SpecGenerator> SpecGenerator::Make(const GeneratorSpec& spec,
                                            std::shared_ptr<ValuePool> pool) {
  if (pool == nullptr) pool = std::make_shared<ValuePool>();
  SpecGenerator gen(spec, std::move(pool));
  const std::vector<SpecField>& fields = gen.spec_.fields;

  std::unordered_set<std::string> names;
  for (const SpecField& f : fields) {
    if (!names.insert(f.name).second) {
      return Status::InvalidArgument("duplicate field name " + f.name);
    }
    if (f.dist != SpecField::Dist::kUnique && f.domain == 0) {
      return Status::InvalidArgument("field " + f.name +
                                     " needs a non-zero domain");
    }
  }

  gen.parent_cols_.resize(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const SpecField& f = fields[i];
    if (f.dist != SpecField::Dist::kDerived) continue;
    if (f.parents.empty()) {
      return Status::InvalidArgument("derived field " + f.name +
                                     " has no parents");
    }
    for (const std::string& p : f.parents) {
      size_t pc = fields.size();
      for (size_t j = 0; j < i; ++j) {
        if (fields[j].name == p) {
          pc = j;
          break;
        }
      }
      if (pc == fields.size()) {
        return Status::InvalidArgument("derived field " + f.name +
                                       " parent " + p +
                                       " must be an earlier field");
      }
      gen.parent_cols_[i].push_back(pc);
    }
  }

  gen.salts_.resize(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    gen.salts_[i] =
        SplitMix64(gen.spec_.seed * 1315423911ull + i * 2654435761ull);
  }

  // Pre-intern every bounded domain serially, in (field, index) order:
  // chunk generation then assigns ids by pure lookup, which is what makes
  // the pool — and so the tables — chunking- and thread-invariant.
  size_t expected = 0;
  for (const SpecField& f : fields) {
    if (f.dist != SpecField::Dist::kUnique) expected += f.domain;
  }
  gen.pool_->Reserve(expected);
  gen.domain_ids_.resize(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const SpecField& f = fields[i];
    if (f.dist == SpecField::Dist::kUnique) continue;
    std::vector<ValueId>& ids = gen.domain_ids_[i];
    ids.reserve(f.domain);
    for (size_t v = 0; v < f.domain; ++v) {
      ids.push_back(f.dist == SpecField::Dist::kDictionary
                        ? gen.pool_->Intern(f.values[v])
                        : gen.pool_->Intern(MakeValue(f.prefix, v)));
    }
  }
  return gen;
}

Table SpecGenerator::NewTable() const {
  std::vector<std::string> names;
  names.reserve(spec_.fields.size());
  for (const SpecField& f : spec_.fields) names.push_back(f.name);
  return Table(spec_.name, Schema(names), pool_);
}

uint64_t SpecGenerator::CellIndex(
    size_t field, size_t row,
    const std::vector<uint64_t>& row_indexes) const {
  const SpecField& f = spec_.fields[field];
  switch (f.dist) {
    case SpecField::Dist::kUnique:
      return row;
    case SpecField::Dist::kUniform:
      return SplitMix64(salts_[field] ^
                        (row * 0x9e3779b97f4a7c15ull)) % f.domain;
    case SpecField::Dist::kZipf:
      return ZipfIndex(
          f.domain, f.skew,
          ToUnit(SplitMix64(salts_[field] ^ (row * 0x9e3779b97f4a7c15ull))));
    case SpecField::Dist::kDictionary: {
      uint64_t h = SplitMix64(salts_[field] ^ (row * 0x9e3779b97f4a7c15ull));
      return f.skew > 0.0 ? ZipfIndex(f.domain, f.skew, ToUnit(h))
                          : h % f.domain;
    }
    case SpecField::Dist::kDerived: {
      // Hash the parents' domain indexes, never their interned ids: ids
      // depend on interning history, indexes are pure functions of the
      // row, so derived cells stay chunking-invariant.
      uint64_t h = salts_[field];
      for (size_t pc : parent_cols_[field]) {
        h = SplitMix64(h ^ (row_indexes[pc] + 0x517cc1b7ull));
      }
      return h % f.domain;
    }
  }
  return 0;
}

StatusOr<std::vector<std::vector<ValueId>>> SpecGenerator::Chunk(
    size_t begin, size_t n, ThreadPool* tp) const {
  const size_t arity = spec_.fields.size();
  // Pass 1 (parallel, pure): domain indexes for every cell of the chunk.
  std::vector<std::vector<uint64_t>> indexes(arity,
                                             std::vector<uint64_t>(n));
  ThreadPool& pool = tp != nullptr ? *tp : ThreadPool::Global();
  pool.ParallelFor(n, /*min_grain=*/1024, [&](size_t b, size_t e) {
    std::vector<uint64_t> row_indexes(arity);
    for (size_t i = b; i < e; ++i) {
      for (size_t f = 0; f < arity; ++f) {
        row_indexes[f] = CellIndex(f, begin + i, row_indexes);
        indexes[f][i] = row_indexes[f];
      }
    }
  });

  // Pass 2 (serial): resolve indexes to interned ids. Bounded domains are
  // pure lookups; unique fields intern their fresh values in row order so
  // id assignment is identical however pass 1 was sharded.
  std::vector<std::vector<ValueId>> chunk(arity, std::vector<ValueId>(n));
  std::vector<std::string> storage;
  std::vector<std::string_view> views;
  for (size_t f = 0; f < arity; ++f) {
    const SpecField& field = spec_.fields[f];
    if (field.dist == SpecField::Dist::kUnique) {
      storage.clear();
      storage.reserve(n);
      views.resize(n);
      for (size_t i = 0; i < n; ++i) {
        storage.push_back(MakeValue(field.prefix, indexes[f][i]));
        views[i] = storage.back();
      }
      pool_->InternBatch(std::span<const std::string_view>(views),
                         chunk[f].data());
    } else {
      const std::vector<ValueId>& ids = domain_ids_[f];
      for (size_t i = 0; i < n; ++i) chunk[f][i] = ids[indexes[f][i]];
    }
  }
  return chunk;
}

StatusOr<SpecAppendChunk> SpecGenerator::AppendBatchChunk(
    size_t begin, size_t n, ThreadPool* tp) const {
  SpecAppendChunk out;
  FALCON_ASSIGN_OR_RETURN(out.clean, Chunk(begin, n, tp));
  out.dirty = out.clean;
  double rate = spec_.append.error_rate;
  if (rate <= 0.0) return out;
  // Per-cell corruption, pure in (seed, absolute row, field) — serial and
  // row-major so the "_err" values intern in a chunk-invariant order.
  uint64_t err_salt = SplitMix64(spec_.seed ^ 0xe445282977f0147full);
  const size_t arity = spec_.fields.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < arity; ++f) {
      uint64_t h = SplitMix64(err_salt ^ ((begin + i) * 0x9e3779b97f4a7c15ull +
                                          f * 0xc2b2ae3d27d4eb4full));
      if (ToUnit(h) >= rate) continue;
      std::string wrong(pool_->Get(out.clean[f][i]));
      wrong += "_err";
      out.dirty[f][i] = pool_->Intern(wrong);
      ++out.errors;
    }
  }
  return out;
}

Status SpecGenerator::AppendRows(Table* table, size_t n,
                                 ThreadPool* tp) const {
  if (table->pool() != pool_) {
    return Status::InvalidArgument(
        "table does not share the generator's ValuePool");
  }
  constexpr size_t kChunkRows = 65536;
  size_t begin = table->num_rows();
  size_t done = 0;
  while (done < n) {
    size_t m = std::min(kChunkRows, n - done);
    FALCON_ASSIGN_OR_RETURN(auto chunk, Chunk(begin + done, m, tp));
    table->AppendBatch(chunk);
    done += m;
  }
  return Status::Ok();
}

StatusOr<SpecWorkload> MakeSpecWorkload(const GeneratorSpec& spec,
                                        ThreadPool* tp, size_t chunk_rows) {
  FALCON_ASSIGN_OR_RETURN(SpecGenerator gen, SpecGenerator::Make(spec));
  Table clean = gen.NewTable();
  clean.ReserveRows(spec.rows);
  if (chunk_rows == 0) chunk_rows = 65536;
  for (size_t done = 0; done < spec.rows;) {
    size_t m = std::min(chunk_rows, spec.rows - done);
    FALCON_ASSIGN_OR_RETURN(auto chunk, gen.Chunk(done, m, tp));
    clean.AppendBatch(chunk);
    done += m;
  }

  ErrorSpec error_spec;
  error_spec.seed = spec.errors.seed;
  error_spec.num_format_patterns = spec.errors.format_patterns;
  error_spec.num_random_errors = spec.errors.random_errors;
  for (const SpecRuleError& r : spec.errors.rules) {
    RuleErrorSpec rule;
    rule.rule.lhs = r.lhs;
    rule.rule.rhs = r.rhs;
    rule.num_patterns = r.patterns;
    rule.errors_per_pattern = r.errors_per_pattern;
    error_spec.rule_errors.push_back(std::move(rule));
  }
  FALCON_ASSIGN_OR_RETURN(auto dirty, InjectErrors(clean, error_spec));

  CleaningWorkload w;
  w.name = spec.name;
  w.clean = std::move(clean);
  w.dirty = std::move(dirty.dirty);
  w.errors = dirty.errors.size();
  w.patterns = dirty.injected_patterns.size();
  w.snapshot_id = NextWorkloadSnapshotId();
  return SpecWorkload{std::move(w), std::move(gen)};
}

}  // namespace falcon
