"""Parse TREC-format files and score every system with nDCG@10.

This walks the first stage of the pipeline: load a run set and a qrel
set, look at what the parser normalised, and turn everything into a
system-by-topic score matrix.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from discrimpower import (
    MeasureSpec,
    load_qrels,
    load_runs_dir,
    mean_scores,
    ndcg_at_k,
    score_matrix,
    write_mini_collection,
)


def main():
    with TemporaryDirectory() as td:
        qrels_path, run_paths = write_mini_collection(Path(td))
        print(f"wrote {len(run_paths)} run files and {qrels_path.name}\n")

        runs = load_runs_dir(Path(td) / "runs")
        qrels = load_qrels(qrels_path)
        print("systems:", ", ".join(runs.systems()))
        print("topics: ", ", ".join(runs.topics()))
        print(f"judgments: {len(qrels.judgments)}")

        # A Ranking holds doc ids and scores in rank order, sorted by score
        # (ties broken by document id, descending), the trec_eval
        # convention; the rank of doc_ids[i] is i + 1.
        tag = runs.systems()[0]
        topic = runs.topics()[0]
        ranking = runs.runs[tag][topic]
        print(f"\ntop 3 of {tag} on {topic}:")
        for i, (doc_id, score) in enumerate(zip(ranking.doc_ids[:3], ranking.scores)):
            grade = qrels.judgments.get((topic, doc_id), 0)
            print(f"  rank {i + 1}: {doc_id} score={score:.3f} grade={grade}")

        per_topic = {d: g for (t, d), g in qrels.judgments.items() if t == topic}
        ndcg = ndcg_at_k(ranking.doc_ids, per_topic, MeasureSpec())
        print(f"\nnDCG@10 for that ranking: {ndcg:.4f}")

        sm = score_matrix(runs, qrels, MeasureSpec(k=10))
        print("\nfull score matrix (systems x topics):")
        print(sm.to_csv())
        print("mean nDCG@10 per system:")
        for tag, mean in mean_scores(sm).items():
            print(f"  {tag}: {mean:.4f}")


if __name__ == "__main__":
    main()
