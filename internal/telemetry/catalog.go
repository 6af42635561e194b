package telemetry

// The standard metric catalog. Every instrumented subsystem pulls its
// metrics from here so the whole fleet shares one naming scheme:
// fi_<subsystem>_<what>_<unit-or-total>, counters suffixed _total,
// gauges named for the quantity they track. All metrics live on the
// Default registry and are exported by fiserver's GET /metrics and
// fiworker's -metrics-addr sidecar. DESIGN.md "Observability" carries
// the human-readable table.
var (
	// Campaign scheduler (internal/campaign.Scheduler).
	SchedCellRuns = Default.Counter("fi_sched_cell_runs_total",
		"Campaign cells executed to completion by the scheduler.")
	SchedCacheHits = Default.Counter("fi_sched_cache_hits_total",
		"Cells answered from the result store without execution.")
	SchedCacheUpgrades = Default.Counter("fi_sched_cache_upgrades_total",
		"Cached cells re-executed because a request wanted more injections.")
	SchedJoins = Default.Counter("fi_sched_joins_total",
		"Requests coalesced onto an identical in-flight cell (singleflight).")
	SchedInflight = Default.Gauge("fi_sched_inflight_cells",
		"Cells currently executing under the scheduler.")
	GoldenCacheHits = Default.Counter("fi_sched_golden_cache_hits_total",
		"Golden reference runs reused from the per-(chip,benchmark) cache.")
	GoldenCacheMisses = Default.Counter("fi_sched_golden_cache_misses_total",
		"Golden reference runs that had to be simulated.")

	// Lease queue (internal/campaign.LeaseQueue).
	LeasesGranted = Default.Counter("fi_lease_granted_total",
		"Leases handed to workers, including re-grants after expiry.")
	LeaseHeartbeats = Default.Counter("fi_lease_heartbeats_total",
		"Successful lease heartbeat renewals.")
	LeaseExpiries = Default.Counter("fi_lease_expiries_total",
		"Leases whose TTL lapsed, re-queueing the cell.")
	LeaseCompletions = Default.Counter("fi_lease_completed_total",
		"Cells completed successfully over the worker protocol.")
	LeaseFailures = Default.Counter("fi_lease_failed_total",
		"Cells whose worker reported an execution error.")
	LeaseQueueDepth = Default.Gauge("fi_lease_queue_depth",
		"Cells waiting in the lease queue, not yet leased.")
	LeaseOutstanding = Default.Gauge("fi_lease_outstanding",
		"Cells currently leased to workers and awaiting completion.")

	// Injection engine (internal/finject).
	Injections = Default.Counter("fi_inject_injections_total",
		"Fault injections classified, simulated or pruned.")
	InjectPruned = Default.Counter("fi_inject_pruned_total",
		"Injections classified Masked without simulation.")
	InjectRounds = Default.Counter("fi_inject_rounds_total",
		"Adaptive campaign rounds executed.")
	InjectEarlyStops = Default.Counter("fi_inject_early_stops_total",
		"Campaigns stopped early by the confidence-interval policy.")
	CkptRestores = Default.Counter("fi_inject_ckpt_restores_total",
		"Simulated injections fast-forwarded by restoring a checkpoint-ladder rung.")
	FullReplays = Default.Counter("fi_inject_full_replays_total",
		"Simulated injections replayed from cycle zero (no usable rung).")
	FastForwardCycles = Default.Counter("fi_inject_ff_cycles_total",
		"Simulated cycles skipped via checkpoint restore.")
	RestorePagesCopied = Default.Counter("fi_inject_restore_pages_copied_total",
		"Memory pages copied by COW snapshot restores (identity mismatch).")
	RestorePagesShared = Default.Counter("fi_inject_restore_pages_shared_total",
		"Memory pages skipped by COW snapshot restores (identity match).")
	SimulatedCycles = Default.Counter("fi_inject_sim_cycles_total",
		"Cycles actually simulated during injection classification.")
	LadderBuilds = Default.Counter("fi_ladder_builds_total",
		"Checkpoint ladders built during golden runs.")
	LadderSnapshots = Default.Counter("fi_ladder_snapshots_total",
		"Snapshots taken while building checkpoint ladders.")
	LadderBytes = Default.Counter("fi_ladder_bytes_total",
		"Bytes captured into checkpoint-ladder snapshots.")

	// Wire-format result store (internal/campaign.DiskStore).
	StorePuts = Default.Counter("fi_store_disk_puts_total",
		"Cell results appended to disk stores.")
	StoreCompactions = Default.Counter("fi_store_disk_compactions_total",
		"Disk store compactions (dead-record garbage collection).")
	StoreRecordsLive = Default.Gauge("fi_store_disk_records_live",
		"Live (most-recent) records across open disk stores.")
	StoreRecordsDead = Default.Gauge("fi_store_disk_records_dead",
		"Superseded records across open disk stores, pending compaction.")

	// Binary wire format (internal/wire).
	WireBytesWritten = Default.Counter("fi_wire_bytes_written_total",
		"Bytes written to binary wire-format result stores.")

	// Job journal and restart recovery (internal/service.JobStore).
	JobJournalAppends = Default.Counter("fi_store_job_journal_appends_total",
		"Records durably appended (fsynced) to the job journal.")
	JobJournalTornTails = Default.Counter("fi_store_job_journal_torn_tails_total",
		"Torn journal tails (partial final records) truncated on recovery.")
	JobJournalCompactions = Default.Counter("fi_store_job_journal_compactions_total",
		"Job journal compactions (rewrite to the live record minimum).")
	JobsRecovered = Default.Counter("fi_store_jobs_recovered_total",
		"Jobs restored from the journal on boot (finished and unfinished).")
	JobsResumed = Default.Counter("fi_store_jobs_resumed_total",
		"Unfinished jobs re-driven through the scheduler after a restart.")

	// HTTP control plane (internal/service).
	HTTPRequests = Default.CounterVec("fi_http_requests_total",
		"Control-plane HTTP requests served, by route.", "route")
	HTTPLatency = Default.HistogramVec("fi_http_request_seconds",
		"Control-plane HTTP request latency in seconds, by route.", "route", DefBuckets)

	// Multi-tenancy (internal/service auth + quotas). Tenant label values
	// come from the -api-keys file, so cardinality is bounded by the
	// operator's tenant table; unauthenticated servers account everything
	// to the "default" tenant.
	HTTPTenantRequests = Default.CounterVec("fi_http_tenant_requests_total",
		"Authenticated control-plane requests served, by tenant.", "tenant")
	HTTPAuthFailures = Default.Counter("fi_http_auth_failures_total",
		"Requests rejected for a missing or unknown API key.")
	JobsSubmitted = Default.CounterVec("fi_jobs_submitted_total",
		"Jobs (batches and experiments) accepted, by tenant.", "tenant")
	JobsQuotaRejected = Default.CounterVec("fi_jobs_quota_rejected_total",
		"Submissions rejected with 429 by a tenant quota, by tenant.", "tenant")
	LeaseTenantDepth = Default.GaugeVec("fi_lease_queue_depth_tenant",
		"Cells waiting in the lease queue, not yet leased, by tenant.", "tenant")

	// Horizontal control plane (internal/service cluster ownership).
	ClusterEpoch = Default.Gauge("fi_cluster_epoch",
		"Ownership epoch this server last claimed or observed (0 outside cluster mode).")
	ClusterActive = Default.Gauge("fi_cluster_active",
		"1 while this server owns the shared job store, 0 in standby.")
	ClusterTakeovers = Default.Counter("fi_cluster_takeovers_total",
		"Ownership claims made after detecting a stale peer (adoptions).")
)
