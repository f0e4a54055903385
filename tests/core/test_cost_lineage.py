"""CostLineage: events, positions, induction, estimates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_lineage import CostLineage, JobCapture, StageRef


def capture(job_seq, stage_refs):
    return JobCapture(
        job_seq=job_seq,
        stages=tuple(StageRef(seq=s, rdd_ids=tuple(ids)) for s, ids in stage_refs),
    )


def test_future_refs_counts_remaining_events():
    lin = CostLineage()
    lin.ingest_capture(capture(0, [(0, [1]), (1, [1, 2])]))
    lin.ingest_capture(capture(1, [(0, [1])]))
    lin.set_position(0, 0)
    assert lin.future_refs(1) == 3
    lin.set_position(0, 1)
    assert lin.future_refs(1) == 2
    assert lin.future_refs(1, inclusive=False) == 1  # only job 1 remains
    lin.set_position(1, 1)
    assert lin.future_refs(1) == 0


def test_refs_in_window():
    lin = CostLineage()
    for j in range(4):
        lin.ingest_capture(capture(j, [(0, [5])]))
    assert lin.refs_in_window(5, 1, 2) == 2
    assert lin.refs_in_window(5, 0, 3) == 4


def test_next_reference_job():
    lin = CostLineage()
    lin.ingest_capture(capture(2, [(0, [7])]))
    lin.set_position(0, 0)
    assert lin.next_reference_job(7) == 2
    lin.set_position(3, 0)
    assert lin.next_reference_job(7) is None


def test_real_ingest_replaces_estimates():
    lin = CostLineage()
    lin.ingest_capture(capture(1, [(0, [1, 2])]), estimated=True)
    assert lin.future_refs(2) == 1
    # The real job 1 references only rdd 1: the estimate for rdd 2 dies.
    lin.ingest_capture(capture(1, [(0, [1])]))
    lin.set_position(0, 0)
    assert lin.future_refs(2) == 0
    assert lin.future_refs(1) == 1


def test_cycle_detection_marks_knowledge_complete():
    lin = CostLineage()
    assert not lin.knowledge_complete
    for j, ids in enumerate([[0, 1], [2, 3], [4, 5], [6, 7]]):
        lin.ingest_capture(capture(j, [(0, ids)]))
    assert lin.cycle is not None
    assert lin.knowledge_complete


def test_extension_projects_cycle_roles():
    lin = CostLineage()
    # rdd of iteration i is referenced at its own job and the next one.
    for j in range(4):
        ids = [10 + j]
        if j > 0:
            ids.append(10 + j - 1)
        lin.ingest_capture(capture(j, [(0, ids)]))
    assert lin.cycle is not None
    added = lin.extend_with_pattern(up_to_job=5)
    assert added > 0
    lin.set_position(4, 0)
    assert lin.future_refs(13) > 0, "iteration-3 dataset projected into job 4"


def test_extension_capped_by_expected_total_jobs():
    lin = CostLineage()
    for j in range(4):
        ids = [10 + j] + ([10 + j - 1] if j > 0 else [])
        lin.ingest_capture(capture(j, [(0, ids)]))
    lin.expected_total_jobs = 4
    assert lin.extend_with_pattern(up_to_job=10) == 0, "no events past the app end"


def test_extension_disabled_without_induction():
    lin = CostLineage(induction_enabled=False)
    for j in range(4):
        lin.ingest_capture(capture(j, [(0, [10 + j])]))
    assert lin.extend_with_pattern(10) == 0


def test_structure_registration_and_estimates():
    lin = CostLineage()
    lin.register_rdd(3, parent_ids=(1, 2), num_splits=4, name="joined", ser_factor=2.0)
    assert lin.parents_of(3) == (1, 2)
    assert lin.num_splits_of(3) == 4
    assert lin.name_of(3) == "joined"
    assert lin.ser_factor_of(3) == 2.0
    assert lin.ser_factor_of(99) == 1.0


def test_estimate_prefers_observed_then_prior_then_default():
    lin = CostLineage()
    assert lin.estimate_size(1, 0, default=7.0) == 7.0
    lin.prior.observe(1, 0, size_bytes=50.0)
    assert lin.estimate_size(1, 0) == 50.0
    lin.observe_partition(1, 0, size_bytes=80.0, compute_seconds=1.0)
    assert lin.estimate_size(1, 0) == 80.0
    assert lin.estimate_compute_seconds(1, 0) == 1.0


# ----------------------------------------------------------------------
# More than one application: reference streams
# ----------------------------------------------------------------------
def run_job(lin, key, job_seq, stage_refs, finish=True):
    """What the UDL does per job: activate, ingest, position, (complete)."""
    lin.activate(key)
    lin.ingest_capture(capture(job_seq, stage_refs))
    lin.set_position(job_seq, 0)
    if finish:
        lin.set_position(job_seq, len(stage_refs))


def test_future_refs_sums_open_streams_on_their_own_job_axes():
    lin = CostLineage()
    lin.open_stream("a")
    lin.open_stream("b")
    run_job(lin, "a", 0, [(0, [1])])
    run_job(lin, "a", 1, [(0, [1])], finish=False)
    lin.ingest_capture(capture(2, [(0, [1])]), estimated=True)
    assert lin.future_refs(1) == 2 and lin.future_refs(1, inclusive=False) == 1
    # b's first job is *its* job 0, whatever a's position
    run_job(lin, "b", 0, [(0, [1]), (1, [1])], finish=False)
    assert lin.future_refs(1) == 2 + 2, "a parked mid-count: both of its refs remain"
    assert lin.future_refs(1, inclusive=False) == 2 + 1, "only b has a running stage"
    lin.close_stream("a")
    assert lin.future_refs(1) == 2
    lin.close_stream("b")
    assert lin.future_refs(1) == 0


def test_stream_adopts_a_recent_template_that_covers_its_first_capture():
    lin = CostLineage()
    run_job(lin, "first", 0, [(0, [1, 2]), (1, [3])])
    run_job(lin, "first", 1, [(0, [3])])
    lin.close_stream("first")  # adopted nothing: becomes a template itself
    # warm instance: its job 0 touches less (2 is cached), still covered
    run_job(lin, "warm", 0, [(1, [3])], finish=False)
    assert lin.knowledge_complete and lin.expected_total_jobs == 2
    assert lin.future_refs(3) == 2, "job 0 real + job 1 adopted as estimate"
    assert lin.future_refs(2) == 0, "job 0's estimate yielded to the real capture"
    # a different application: nothing adopted, nothing known
    run_job(lin, "other", 0, [(0, [7])], finish=False)
    assert not lin.knowledge_complete and lin.future_refs(7) == 1


def test_two_of_the_last_three_closed_streams_project_one_more_instance():
    lin = CostLineage()
    for key in ("a", "b"):
        run_job(lin, key, 0, [(0, [1]), (1, [1, 2])])
        assert lin.future_refs(1) == 0, "nothing projected yet"
        lin.close_stream(key)
    assert (lin.future_refs(1), lin.future_refs(2)) == (2, 1), "one instance, not two"
    assert lin.refs_in_window(1, 0, 0) == 2 and lin.next_reference_job(2) == 0
    for key in ("x", "y"):  # two unrelated applications push it out of the window
        run_job(lin, key, 0, [(0, [9])])
        lin.close_stream(key)
    assert lin.future_refs(1) == 0 and lin.future_refs(9) == 1


def test_seeded_template_goes_to_the_next_stream_to_open_at_open():
    lin = CostLineage()
    lin.add_template([capture(0, [(0, [1])]), capture(1, [(0, [1])])], complete=True)
    assert lin.future_refs(1) == 0, "no application yet"
    lin.open_stream("app")
    assert lin.future_refs(1) == 2 and lin.knowledge_complete
    lin.open_stream("later")
    assert lin.future_refs(1) == 2, "a later stream learns what it is at its first job"
    run_job(lin, "later", 0, [(0, [1])], finish=False)
    assert lin.future_refs(1) == 4


def test_zero_refs_is_only_trusted_for_streams_that_know_their_future():
    lin = CostLineage()
    lin.open_stream("knows")
    lin.open_stream("learning")
    run_job(lin, "learning", 0, [(0, [5])])
    run_job(lin, "knows", 0, [(0, [6])])
    lin.knowledge_complete = True  # the current stream ("knows")
    assert lin.refs_exhaustive(6)
    assert not lin.refs_exhaustive(5), "learning touched 5 and may yet come back to it"
    lin.close_stream("learning")
    assert lin.refs_exhaustive(5)


# -- property: the three queries equal a brute-force sum over event lists
KEYS = ("a", "b", "c", "d")
RDDS = range(6)
stage_lists = st.lists(
    st.lists(st.sampled_from(RDDS), min_size=1, max_size=3, unique=True),
    min_size=1, max_size=3,
)
stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(KEYS)),
        st.tuples(st.just("close"), st.sampled_from(KEYS)),
        # run the stream's next job, checking mid-job after `done` stages
        st.tuples(st.just("job"), st.sampled_from(KEYS), stage_lists, st.integers(0, 3)),
    ),
    max_size=24,
)


def brute_force(lin, current_key, rdd_id, first_job, last_job):
    """``(future_refs incl., excl., refs_in_window, next_reference_job)``."""
    def events(stream):
        return sorted(
            stream._events.get(rdd_id, set())
            | stream._estimated_events.get(rdd_id, set())
            | stream._recurrent_events.get(rdd_id, set())
        )

    counted = [(key == current_key, s) for key, s in lin._streams.items()]
    if lin._projected is not None:
        counted.append((False, lin._projected))
    current = lin._streams.get(current_key)
    after_current = current.position[0] + 1 if current is not None else 0
    incl = excl = window = 0
    nexts = []
    for is_current, stream in counted:
        pos, evs = stream.position, events(stream)
        incl += sum(e >= pos for e in evs)
        excl += sum(e > pos if is_current else e >= pos for e in evs)
        first = first_job if is_current else pos[0] + 1
        window += sum(first <= j <= first + (last_job - first_job) for j, _ in evs)
        upcoming = [j for j, s in evs if (j, s) >= pos]
        if upcoming:
            nexts.append(upcoming[0] if is_current else after_current + upcoming[0] - (pos[0] + 1))
    return incl, excl, window, min(nexts, default=None)


@settings(max_examples=300, deadline=None)
@given(stream_ops, st.integers(0, 3), st.integers(0, 3))
def test_reference_queries_equal_brute_force_sums(ops, first_job, span):
    lin = CostLineage()
    jobs_run = dict.fromkeys(KEYS, 0)
    open_keys: set[str] = set()
    current = None

    def check():
        assert set(lin._streams) == open_keys
        for rdd_id in RDDS:
            assert (
                lin.future_refs(rdd_id),
                lin.future_refs(rdd_id, inclusive=False),
                lin.refs_in_window(rdd_id, first_job, first_job + span),
                lin.next_reference_job(rdd_id),
            ) == brute_force(lin, current, rdd_id, first_job, first_job + span)

    for op in ops:
        if op[0] == "open":
            lin.open_stream(op[1])
            if op[1] not in open_keys:  # re-opening an open stream is a no-op
                open_keys.add(op[1])
                current = op[1] if current is None else current
        elif op[0] == "close":
            lin.close_stream(op[1])
            open_keys.discard(op[1])
            jobs_run[op[1]] = 0  # the key's next application starts over
            current = None if current == op[1] else current
        else:
            _, key, stages, done = op
            job_seq, current = jobs_run[key], key
            open_keys.add(key)
            jobs_run[key] += 1
            run_job(lin, key, job_seq, list(enumerate(stages)), finish=False)
            lin.extend_with_pattern(job_seq + 2)
            lin.set_position(job_seq, min(done, len(stages)))
            check()  # mid-job: the current stream counts inclusive/exclusive
            lin.set_position(job_seq, len(stages))  # parked only between jobs
        check()
