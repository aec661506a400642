//! Seeded inputs. Every workload draws its videos and statements from
//! here, so one `--seed` fixes everything the system under test receives.

use std::sync::Arc;
use svq_query::plan::PlannedPredicate;
use svq_query::{parse, LogicalPlan};
use svq_types::{ActionClass, ActionQuery, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// Frames per generated video: 180 clips of 50 frames (25 fps).
pub const VIDEO_FRAMES: u64 = 9_000;
/// Clips per generated video.
pub const VIDEO_CLIPS: u64 = 180;

/// Actions the videos depict; video `v` depicts `ACTIONS[v % 2]`.
pub const ACTIONS: [&str; 2] = ["jumping", "kissing"];
/// Objects in the videos: `OBJECTS[v % 2]` is correlated with the
/// video's action, the other one is scenery.
pub const OBJECTS: [&str; 2] = ["car", "person"];
/// The K values of the offline rotation.
pub const KS: [usize; 3] = [3, 5, 10];

/// SplitMix64 finaliser: decorrelates the per-video seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The scenario of video `video` under `seed`.
pub fn scenario(seed: u64, video: u64) -> ScenarioSpec {
    let a = (video % 2) as usize;
    ScenarioSpec::activitynet(
        VideoId::new(video),
        VIDEO_FRAMES,
        ActionClass::named(ACTIONS[a]),
        vec![
            ObjectSpec::correlated(ObjectClass::named(OBJECTS[a])),
            ObjectSpec::scene(ObjectClass::named(OBJECTS[1 - a])),
        ],
        mix(seed, video),
    )
}

/// Simulated model outputs for video `video` under `seed`.
pub fn oracle(seed: u64, video: u64) -> Arc<DetectionOracle> {
    Arc::new(
        scenario(seed, video)
            .generate()
            .oracle(ModelSuite::accurate()),
    )
}

/// Oracles for videos `0..count`.
pub fn oracles(seed: u64, count: u64) -> Vec<Arc<DetectionOracle>> {
    (0..count).map(|v| oracle(seed, v)).collect()
}

/// An online (SVAQD) statement: `act = action AND obj.include(object)`.
pub fn online_sql(action: &str, object: &str) -> String {
    format!(
        "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='{action}' AND obj.include('{object}')"
    )
}

/// An offline top-K (RVAQ) statement.
pub fn offline_sql(action: &str, object: &str, k: usize) -> String {
    format!(
        "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
         act USING ActionRecognizer) \
         WHERE act='{action}' AND obj.include('{object}') \
         ORDER BY RANK(act, obj) LIMIT {k}"
    )
}

/// The offline rotation: actions x objects x K, 12 statements.
pub fn offline_rotation() -> Vec<String> {
    let mut out = Vec::new();
    for action in ACTIONS {
        for object in OBJECTS {
            for k in KS {
                out.push(offline_sql(action, object, k));
            }
        }
    }
    out
}

/// The online statements a video is scanned with: its own action with
/// the correlated object, then with the scenery object.
pub fn online_rotation(video: u64) -> [String; 2] {
    let a = (video % 2) as usize;
    [
        online_sql(ACTIONS[a], OBJECTS[a]),
        online_sql(ACTIONS[a], OBJECTS[1 - a]),
    ]
}

/// Parse and plan a statement the benchmark itself wrote.
pub fn plan(sql: &str) -> LogicalPlan {
    LogicalPlan::from_statement(&parse(sql).expect("benchmark SQL parses"))
        .expect("benchmark SQL plans")
}

/// The canonical conjunction of a benchmark statement.
pub fn action_query(plan: &LogicalPlan) -> ActionQuery {
    match &plan.predicate {
        PlannedPredicate::Simple(q) => q.clone(),
        PlannedPredicate::Cnf(_) => unreachable!("benchmark statements are simple conjunctions"),
    }
}
