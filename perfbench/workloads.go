package main

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// job is one extraction request: an application and the seed its
// database instance D_I is generated from.
type job struct {
	App  string
	Seed int64
}

// workload is one benchmark input set. A run is a number of rounds;
// every round executes the workload's whole job set once, in its own
// order.
type workload struct {
	name string
	apps []string
	// seedsPerApp is how many D_I seeds each app runs with.
	seedsPerApp int
	// nominalRound is how long one round took on the reference host
	// (2 cores); with -seconds it fixes the number of rounds, so every
	// commit executes the same jobs however fast it runs.
	nominalRound time.Duration
	// minRounds keeps at least 100 jobs in a run, so that at least ten
	// samples lie beyond the reported p90.
	minRounds int
	run       func(context.Context, *bench) (*report, error)
	traced    func(context.Context, *bench) (*report, error)
}

var workloads = map[string]*workload{}

func init() {
	workloads["cli-sql"] = &workload{
		name: "cli-sql", apps: sqlApps, seedsPerApp: 2, nominalRound: 8500 * time.Millisecond, minRounds: 2,
		run: runCLI, traced: tracedCLI,
	}
	workloads["daemon-cold"] = &workload{
		name: "daemon-cold", apps: imperativeApps, seedsPerApp: 5, nominalRound: 4300 * time.Millisecond, minRounds: 1,
		run: runDaemonCold, traced: tracedDaemonCold,
	}
	workloads["daemon-warm"] = &workload{
		name: "daemon-warm", apps: imperativeApps, seedsPerApp: 5, nominalRound: 2500 * time.Millisecond, minRounds: 1,
		run: runDaemonWarm, traced: tracedDaemonWarm,
	}
}

// rounds is the number of rounds that fill -seconds.
func (w *workload) rounds(seconds int) int {
	return max(w.minRounds, int(math.Round(float64(seconds)/w.nominalRound.Seconds())))
}

// sqlApps are the registry's SQL applications: the paper's own setting,
// engine- and minimizer-bound on TPC-H at ScaleTiny*8.
var sqlApps = []string{
	"tpch/Q1", "tpch/Q3", "tpch/Q4", "tpch/Q5", "tpch/Q6", "tpch/Q10",
	"tpch/Q12", "tpch/Q14", "tpch/Q16", "tpch/Q18", "tpch/Q19", "tpch/Q21",
	"tpch/H1", "tpch/H2",
	"tpcds/DS3", "tpcds/DS7", "tpcds/DS19", "tpcds/DS42", "tpcds/DS52", "tpcds/DS55", "tpcds/DS96",
	"job/J1", "job/J2", "job/J3", "job/J4", "job/J5", "job/J6",
	"job/J7", "job/J8", "job/J9", "job/J10", "job/J11",
}

// imperativeApps are the short imperative applications (3–40 ms each).
var imperativeApps = []string{
	"enki/approved_comment_total", "enki/approved_comments", "enki/approved_counts_per_post",
	"enki/old_archive", "enki/page_by_slug", "enki/pages_index", "enki/popular_posts",
	"enki/post_by_slug", "enki/posts_by_tag", "enki/recent_comments", "enki/recent_posts",
	"enki/search_posts", "enki/tag_list",
	"wilos/ActivityDao.heavy", "wilos/ActivityDao.started", "wilos/ActivityDao.totalWorkload",
	"wilos/ActivityService(347)", "wilos/ConcreteActivityDao.avgProgress",
	"wilos/ConcreteActivityService(133)", "wilos/ConcreteRoleDescriptorDao.forPeople",
	"wilos/ConcreteRoleDescriptorService(181)", "wilos/GuidanceDao.checklists",
	"wilos/GuidanceDao.perType", "wilos/GuidanceService(168)", "wilos/IterationDao.forPhases",
	"wilos/IterationService(103)", "wilos/ParticipantDao.inactive", "wilos/ParticipantService(266)",
	"wilos/PhaseDao.byState", "wilos/PhaseService(98)", "wilos/ProjectDao.getAll",
	"wilos/ProjectDao.launched", "wilos/ProjectService(297)", "wilos/RoleDao(15)", "wilos/RoleDao.list",
	"rubis/EndingAuctions", "rubis/MaxBidPerItem", "rubis/ReputableUsers",
	"rubis/SearchItemsByName", "rubis/ViewBidHistory",
}

// excluded lists the registered applications no workload runs, and why.
var excluded = map[string]string{
	"tpch/H3":                     "fails at the registry's scale: projection: dependency orders.o_totalprice is pinned (seeds 1, 2, 6)",
	"enki/posts_per_tag":          "160-320 ms against 3-40 ms for the rest; 9% of daemon jobs would put p90 on the jump between the groups",
	"rubis/BidsPerItem":           "slow imperative app (160-320 ms); excluded for the same p90 reason",
	"rubis/SearchItemsByCategory": "slow imperative app (160-320 ms); excluded for the same p90 reason",
	"rubis/UsersPerRegion":        "slow imperative app (160-320 ms); excluded for the same p90 reason",
}

// schedule lists the jobs of each of rounds rounds. Every round holds
// the same jobs, each app with seedsPerApp distinct D_I seeds, shuffled
// anew. The workload seed sets both the order and the D_I seeds, so the
// same arguments always give the same jobs in the same order.
func (w *workload) schedule(seed int64, rounds int) [][]job {
	var set []job
	for _, app := range w.apps {
		for k := 0; k < w.seedsPerApp; k++ {
			set = append(set, job{App: app, Seed: diSeed(seed, app, k)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]job, rounds)
	for r := range out {
		for _, i := range rng.Perm(len(set)) {
			out[r] = append(out[r], set[i])
		}
	}
	return out
}

// diSeeds is the pool D_I seeds are drawn from: every seed on which
// every app of every workload extracts correctly (perfbench -vet 40).
// On 13, 16, 22, 24, 28, 29, 30, 32, 33, 38 and 39 some extraction
// fails: limit extraction of job/J2, enki/search_posts and
// rubis/SearchItemsByName, the minimizer on wilos/RoleDao(15), the
// checker on tpch/Q1.
var diSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 17, 18, 19, 20, 21, 23, 25, 26, 27, 31, 34, 35, 36, 37, 40}

// diSeed picks the k-th D_I seed of app for the workload seed: distinct
// for k below len(diSeeds), and independent between apps, so a run
// averages over many D_I draws.
func diSeed(seed int64, app string, k int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(app))
	return diSeeds[(h.Sum64()+uint64(k))%uint64(len(diSeeds))]
}
