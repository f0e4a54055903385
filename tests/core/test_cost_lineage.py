"""CostLineage: events, positions, induction, estimates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_lineage import CostLineage, JobCapture, StageRef, StreamTemplate


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
    lin.add_template([capture(1, [(0, [1, 2])])], complete=False)
    lin.open_stream("app")
    assert lin.future_refs(2) == 1, "the template predicts job 1"
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
    lin.set_position(3, 1)
    assert lin.future_refs(13) == 0, "nothing predicted before the horizon moves"
    lin.predict_through(5)
    assert lin.next_reference_job(13) == 4, "iteration-3 dataset predicted in job 4"


def ladder_captures(jobs):
    """Job j creates dataset 10+j and re-reads 10+j-1."""
    return [capture(j, [(0, [10 + j] + ([10 + j - 1] if j > 0 else []))]) for j in range(jobs)]


def test_extension_capped_by_expected_total_jobs():
    lin = CostLineage()
    lin.add_template(ladder_captures(4), complete=True)
    for c in ladder_captures(4):
        lin.ingest_capture(c)
    lin.predict_through(10)
    lin.set_position(3, 1)
    assert lin.expected_total_jobs == 4 and lin.cycle is not None
    assert lin.future_refs(13) == 0, "a complete template ends the app: no induction"


def test_extension_disabled_without_induction():
    lin = CostLineage(induction_enabled=False)
    for c in ladder_captures(4):
        lin.ingest_capture(c)
    lin.predict_through(10)
    lin.set_position(3, 1)
    assert lin.cycle is None and not lin.knowledge_complete
    assert lin.future_refs(13) == 0


def test_dataset_first_seen_after_a_truncated_template_gets_its_role_offsets():
    # Job j creates 10+j and re-reads the two previous iterations in a second
    # stage: offsets {0, 1, 2}.  The profile stopped after job 2; the ILP
    # looks 2 jobs ahead.
    def job(j):
        return capture(j, [(0, [10 + j]), (1, [10 + i for i in (j - 1, j - 2) if i >= 0])])

    lin = CostLineage()
    lin.add_template([job(j) for j in range(3)], complete=False)
    for j in range(5):
        lin.ingest_capture(job(j))
        lin.set_position(j, 0)
        lin.predict_through(j + 2)
        if j == 1:  # job 2 is the template's: it is not predicted over
            assert lin.refs_in_window(11, 2, 2) == 1
            assert lin.refs_in_window(12, 3, 3) == 1, "past the template, roles predict"
    assert lin.cycle is not None and not lin.current.template.complete
    # Older datasets were predicted into job 5 before 14 existed; 14 still
    # gets both of its later references.
    assert [lin.refs_in_window(14, j, j) for j in (5, 6)] == [1, 1]
    lin.set_position(4, 1)
    assert lin.next_reference_job(14) == 5 and lin.future_refs(14) == 2


def test_cycle_detection_supersedes_recurrent_predictions():
    lin = CostLineage()
    lin.ingest_capture(capture(0, [(0, [10])]))
    lin.ingest_capture(capture(1, [(0, [11, 10])]))
    lin.predict_through(3)
    lin.set_position(1, 1)
    assert lin.cycle is None and lin.future_refs(10) == 2, "10 recurs: jobs 2 and 3"
    lin.ingest_capture(capture(2, [(0, [12, 11])]))
    lin.predict_through(4)
    lin.set_position(2, 1)
    # iteration 0's dataset is read by its own job and the next, no later
    assert lin.cycle is not None and lin.future_refs(10) == 0
    assert lin.future_refs(12) == 1 and lin.knowledge_complete


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
    # a's prediction: its job 2 references 1 as well
    lin.open_stream("a").adopt(StreamTemplate((capture(2, [(0, [1])]),), complete=False))
    run_job(lin, "a", 0, [(0, [1])])
    run_job(lin, "a", 1, [(0, [1])], finish=False)
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
    lin.open_stream("knows").adopt(StreamTemplate((capture(0, [(0, [6])]),), complete=True))
    lin.open_stream("learning")
    run_job(lin, "learning", 0, [(0, [5])])
    run_job(lin, "knows", 0, [(0, [6])])
    assert lin.knowledge_complete  # the current stream ("knows")
    assert lin.refs_exhaustive(6)
    assert not lin.refs_exhaustive(5), "learning touched 5 and may yet come back to it"
    lin.close_stream("learning")
    assert lin.refs_exhaustive(5)


# -- property: the four queries equal a brute-force sum over the four rules
KEYS = ("a", "b", "c", "d")
RDDS = range(6)
#: ``("iter", ...)`` jobs create ``LOOP + job`` and re-read earlier ones, so
#: streams detect iteration cycles
LOOP = 6
CHECKED = range(LOOP + 12)
stage_lists = st.lists(
    st.lists(st.sampled_from(RDDS), min_size=1, max_size=3, unique=True),
    min_size=1, max_size=3,
)
back_offsets = st.sets(st.integers(1, 3), max_size=2)
stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(KEYS)),
        st.tuples(st.just("close"), st.sampled_from(KEYS)),
        # run the stream's next job, checking mid-job after `done` stages
        st.tuples(st.just("job"), st.sampled_from(KEYS), stage_lists, st.integers(0, 3)),
        # ``repeat`` iterations in a row
        st.tuples(st.just("iter"), st.sampled_from(KEYS), back_offsets, st.integers(0, 3),
                  st.integers(1, 4)),
        # a profile of the next application: its first jobs, complete or not
        st.tuples(st.just("seed"), st.lists(st.one_of(stage_lists, back_offsets),
                                            min_size=1, max_size=5), st.booleans()),
    ),
    max_size=24,
)


def stages_of(job_seq, spec):
    """A job's stage references: a stage list, or an ``iter`` job's offsets."""
    if isinstance(spec, list):
        return list(enumerate(spec))
    return [(0, [LOOP + job_seq]), (1, [LOOP + job_seq - d for d in sorted(spec) if d <= job_seq])]


def model_events(stream, rdd_id):
    """One stream's references to ``rdd_id``, rule by rule, job by job."""
    def refs(captures):
        return {
            (c.job_seq, stage.seq) for c in captures for stage in c.stages
            if rdd_id in stage.rdd_ids
        }

    template = stream.template.captures if stream.template is not None else ()
    real_last = max((c.job_seq for c in stream.captures), default=-1)
    events = refs(stream.captures) | {e for e in refs(template) if e[0] > real_last}
    if stream.template is not None and stream.template.complete:
        return sorted(events)  # no induction under a complete template
    cycle = stream.cycle
    role = cycle.role_of(rdd_id) if cycle is not None else None
    offsets = set()
    if role is not None and rdd_id in stream.seen_ids:
        for c in stream.captures:
            for stage in c.stages:
                for other in stage.rdd_ids:
                    other_role = cycle.role_of(other)
                    if other_role is not None and other_role[0] == role[0]:
                        offsets.add(c.job_seq - cycle.start_job - other_role[1])
    template_jobs = {c.job_seq for c in template}
    for j in range(real_last + 1, stream.horizon + 1):
        if j <= stream._recurrent_through.get(rdd_id, -1):
            events.add((j, 0))
        if role is not None and j not in template_jobs:
            if j - cycle.start_job - role[1] in offsets:
                events.add((j, 0))
    return sorted(events)


def brute_force(lin, current_key, rdd_id, first_job, last_job):
    """``(future_refs incl., excl., refs_in_window, next_reference_job)``."""
    counted = [(key == current_key, s) for key, s in lin._streams.items()]
    if lin._projected is not None:
        counted.append((False, lin._projected))
    current = lin._streams.get(current_key)
    after_current = current.position[0] + 1 if current is not None else 0
    incl = excl = window = 0
    nexts = []
    for is_current, stream in counted:
        pos, evs = stream.position, model_events(stream, rdd_id)
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
        for rdd_id in CHECKED:
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
        elif op[0] == "seed":
            lin.add_template(
                [capture(j, stages_of(j, spec)) for j, spec in enumerate(op[1])], op[2]
            )
        else:
            key, spec, done = op[1:4]
            for _ in range(op[4] if op[0] == "iter" else 1):
                job_seq, current = jobs_run[key], key
                open_keys.add(key)
                jobs_run[key] += 1
                stages = stages_of(job_seq, spec)
                run_job(lin, key, job_seq, stages, finish=False)
                lin.predict_through(job_seq + 2)
                lin.set_position(job_seq, min(done, len(stages)))
                check()  # mid-job: the current stream counts inclusive/exclusive
                lin.set_position(job_seq, len(stages))  # parked only between jobs
        check()


# -- property: answers are a function of the model, not of query order
def stream_answers(stream, rdd_ids):
    return {
        rdd_id: (
            stream.remaining_refs(rdd_id),
            stream.remaining_refs(rdd_id, inclusive=False),
            stream.refs_in_jobs(rdd_id, stream.position[0], stream.position[0] + 2),
            stream.next_reference_job(rdd_id),
        )
        for rdd_id in rdd_ids
    }


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(stage_lists, back_offsets), min_size=1, max_size=5),
    st.booleans(),
    st.lists(st.tuples(st.one_of(stage_lists, back_offsets), st.booleans(),
                       st.lists(st.sampled_from(CHECKED), max_size=4)), min_size=1, max_size=8),
)
def test_a_fresh_replay_answers_alike_whatever_else_was_predicted(template, complete, jobs):
    """Two lineages see the same captures, template and horizons.

    In one, another application runs alongside, and queries for arbitrary
    datasets force predictions between jobs; in the other, nothing else
    happens and nothing is asked until the end.  A second replay predicts
    only at the last job: everything but the recurrent rule (whose
    watermark is history) must still come out the same.
    """
    def replay(lin, predict_at, noisy):
        lin.add_template([capture(j, stages_of(j, s)) for j, s in enumerate(template)], complete)
        stream = lin.open_stream("app")
        if noisy:
            lin.open_stream("other")
        for job_seq, (spec, other_runs, queried) in enumerate(jobs):
            if noisy and other_runs:
                run_job(lin, "other", job_seq, [(0, [LOOP + 20 + job_seq, 0])])
                lin.predict_through(job_seq + 3)
            run_job(lin, "app", job_seq, stages_of(job_seq, spec), finish=False)
            if job_seq in predict_at:
                lin.predict_through(job_seq + 2)
            if noisy:
                for rdd_id in queried:
                    lin.future_refs(rdd_id)
                    lin.refs_in_window(rdd_id, job_seq, job_seq + 1)
        return stream

    every_job, last_job = range(len(jobs)), {len(jobs) - 1}
    noisy = replay(CostLineage(), every_job, noisy=True)
    quiet = replay(CostLineage(), every_job, noisy=False)
    assert stream_answers(noisy, CHECKED) == stream_answers(quiet, CHECKED)
    once = replay(CostLineage(), last_job, noisy=False)
    same_history = [
        r for r in CHECKED if quiet._recurrent_through.get(r) == once._recurrent_through.get(r)
    ]
    assert stream_answers(once, same_history) == stream_answers(quiet, same_history)
