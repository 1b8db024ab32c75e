#include "telemetry/replay.h"

namespace lingxi::telemetry {

Expected<ReplayResult> Replay::run(const ArchiveReader& reader, Options options) {
  const ArchiveManifest& manifest = reader.manifest();
  ReplayResult result;
  // The reader rejects records outside their shard's users or past the
  // manifest's days as corrupt, so every record fed here is in range.
  analytics::SessionRecords records(
      manifest.users, options.collect_stall_events && manifest.enable_lingxi,
      manifest.intervention_day);

  const auto on_session = [&](const ArchiveSessionRecord& rec) {
    const sim::SessionResult& session = rec.entry.session;
    result.fleet.add_session(session, rec.measured);
    records.add(rec.user, rec.day, rec.params_after, session);
  };
  const auto on_user = [&](const ArchiveUserRecord& rec) {
    ++result.fleet.users;
    result.fleet.add_lingxi_stats(rec.stats);
    result.fleet.adjusted_user_days += rec.adjusted_days;
    records.end_user(rec.user, rec.tolerable_stall);
  };
  if (auto s = reader.scan(on_session, on_user); !s) return s.error();

  analytics::ExperimentResult assembled = records.finish(manifest.days);
  result.daily = std::move(assembled.daily);
  result.user_days = std::move(assembled.user_days);
  result.stall_events = std::move(assembled.stall_events);
  return result;
}

Expected<ReplayResult> Replay::run(const std::string& dir, Options options) {
  auto reader = ArchiveReader::open(dir);
  if (!reader) return reader.error();
  return run(*reader, options);
}

}  // namespace lingxi::telemetry
