"""REP004 fixture: set iteration order leaking into ordered results."""


def remove_stale_rows(engine, old_rows: set, new_rows: set):
    for combination in old_rows - new_rows:  # expect[REP004]
        engine.remove(combination)


def insert_pair_rows(engine, job_types: frozenset):
    for job_type in job_types:  # expect[REP004]
        engine.ensure_row(job_type)


def collect(job_ids):
    pending = set(job_ids)
    return [job_id for job_id in pending]  # expect[REP004]


def level_updates(levels, active: set, step):
    return {job_id: levels[job_id] + step for job_id in active}  # expect[REP004]


class PairRows:
    for job_type in {"resnet50", "a3c"}:  # expect[REP004]
        pass
    ordered = [job_type for job_type in frozenset({"resnet50", "a3c"})]  # expect[REP004]
