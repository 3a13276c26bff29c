#!/bin/sh
# Run every patchgraph command on a small synthetic dataset with the
# package of the source tree SRC, writing every output under OUT, which
# must not exist yet.  Commands' stdout and stderr, and their exit
# statuses, go to OUT/log.txt.
#
# Comparing two trees this way checks that a change keeps every CLI output
# byte-identical; tools/compare_cli_outputs.sh REV does it against a git
# revision.
#
# The commands run inside OUT with relative paths, so the paths that
# reports and log lines record (train_report.json's checkpoint) agree
# between the two trees.
#
# Besides every model command for each architecture and pool, it runs
# train, eval and place for gat at 1 and 2 heads (the default is 4), train,
# eval, match and place with the learned tiny_conv featurizer, the
# two ground-truth oracles (eval --perfect-oracle, stereo with
# stereo.oracle_match=true), verify-theory with small model counts, and
# place on a one-scene dataset (two frames, so one frame pair) with
# threshold tuning on and off.  place on the gcn-mean checkpoint runs
# again with place.dustbin=0.5; with place.iters=2 and with
# place.dustbin=-5, where the place.iters cap stops the plans (all of
# them at 2, most at -5) unconverged, so they take the Sinkhorn residual
# warning path; and with place.iters=400, where every plan reaches its
# bitwise fixed point (Sinkhorn's early exit) long before the cap.  It
# runs once more on data-12, a 12-scene dataset (24 frames, 276 frame
# pairs), so threshold tuning and the confusion counts work on 138
# validation pairs.  eval (on the gcn-mean checkpoint and with
# --perfect-oracle) and ablate run on data-few, the frames of data with at
# most 5 pairs per scene: its 20 pairs name 32 of its 56 patches, and eval
# embeds only those 32.
# ablate runs there again with the tiny_conv featurizer, so every bilinear
# pairing, not only the flagship, trains with a featurizer that trains.
#
# The last blocks run place on data-empty, a copy of the dataset whose
# first frame has no patches (left out with a warning); eval
# --perfect-oracle on data-noid, a copy of the dataset with landmark_id
# dropped from every third patch, so pairs of two patches without an id
# reach the oracle (synth patches always carry one); train and place on
# data-bad, a copy of the dataset with three bad records (an image path
# that is a directory, a 2-vector loc3d, a NaN frame position), so the
# comparison covers the diagnostics path too; and an eval that fails at
# run time (exit 1), which must leave no fail/eval directory behind.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
mkdir "$2"
cd "$2"

pg() {
    echo "+ patchgraph $*" >> log.txt
    status=0
    PYTHONPATH="$src" PYTHONDONTWRITEBYTECODE=1 \
        python3 -m patchgraph.cli "$@" >> log.txt 2>&1 || status=$?
    echo "exit $status" >> log.txt
}

small="--set train.epochs=3 --set model.n=16"
pg synth --seed 5 --set synth.scenes=4 --out data
for arch in gcn gat sage; do
    for pool in mean max; do
        run=$arch-$pool
        ckpt=$run/train/model.json
        pg train --data data --out "$run/train" $small \
            --set model.arch=$arch --set model.pool=$pool
        pg eval --data data --checkpoint "$ckpt" --out "$run/eval"
        pg match --data data --checkpoint "$ckpt" --frame-a s000/a \
            --frame-b s001/b --out "$run/match"
        pg place --data data --checkpoint "$ckpt" --out "$run/place"
        pg stereo --checkpoint "$ckpt" --out "$run/stereo"
    done
done
for heads in 1 2; do
    run=gat-heads$heads
    pg train --data data --out "$run/train" $small --set model.heads=$heads
    pg eval --data data --checkpoint "$run/train/model.json" \
        --out "$run/eval"
    pg place --data data --checkpoint "$run/train/model.json" \
        --out "$run/place"
done
pg train --data data --out tiny_conv/train $small \
    --set model.featurizer=tiny_conv
pg eval --data data --checkpoint tiny_conv/train/model.json \
    --out tiny_conv/eval
pg match --data data --checkpoint tiny_conv/train/model.json \
    --frame-a s000/a --frame-b s001/b --out tiny_conv/match
pg place --data data --checkpoint tiny_conv/train/model.json \
    --out tiny_conv/place
pg ablate --data data --out ablate $small
pg eval --data data --perfect-oracle --out oracle/eval
pg stereo --set stereo.oracle_match=true --out oracle/stereo
pg verify-theory --seed 5 --set theory.kl_models=10 \
    --set theory.scaling_models=4 --set theory.tv_models=10 --out theory

pg synth --seed 3 --set synth.scenes=1 --out data-two
pg train --data data-two --out two/train --set train.epochs=2
pg place --data data-two --checkpoint two/train/model.json \
    --out two/place-tuned
pg place --data data-two --checkpoint two/train/model.json \
    --set place.tune=false --out two/place-fixed
pg place --data data --checkpoint gcn-mean/train/model.json \
    --set place.dustbin=0.5 --out gcn-mean/place-dustbin
pg place --data data --checkpoint gcn-mean/train/model.json \
    --set place.iters=2 --out gcn-mean/place-iters2
pg place --data data --checkpoint gcn-mean/train/model.json \
    --set place.dustbin=-5 --out gcn-mean/place-dustbin-5
pg place --data data --checkpoint gcn-mean/train/model.json \
    --set place.iters=400 --out gcn-mean/place-iters400
pg synth --seed 9 --set synth.scenes=12 --out data-12
pg place --data data-12 --checkpoint gcn-mean/train/model.json \
    --out gcn-mean/place-12
pg synth --seed 5 --set synth.scenes=4 --set synth.max_pairs=5 \
    --out data-few
pg eval --data data-few --checkpoint gcn-mean/train/model.json \
    --out few/eval
pg eval --data data-few --perfect-oracle --out few/oracle
pg ablate --data data-few --out few/ablate $small
pg ablate --data data-few --out few/ablate-tiny_conv $small \
    --set model.featurizer=tiny_conv

cp -r data data-empty
python3 - <<'EOF_EMPTY'
import json
path = "data-empty/manifest.jsonl"
with open(path) as fh:
    frames = [json.loads(line) for line in fh]
frames[0]["patches"] = []
with open(path, "w") as fh:
    fh.writelines(json.dumps(frame) + "\n" for frame in frames)
EOF_EMPTY
pg place --data data-empty --checkpoint gcn-mean/train/model.json \
    --out empty/place

cp -r data data-noid
python3 - <<'EOF_NOID'
import json
path = "data-noid/manifest.jsonl"
with open(path) as fh:
    frames = [json.loads(line) for line in fh]
for frame in frames:
    for rec in frame["patches"][::3]:
        del rec["landmark_id"]
with open(path, "w") as fh:
    fh.writelines(json.dumps(frame) + "\n" for frame in frames)
EOF_NOID
pg eval --data data-noid --perfect-oracle --out noid/oracle

cp -r data data-bad
python3 - <<'EOF_BAD'
import json, os
path = "data-bad/manifest.jsonl"
with open(path) as fh:
    frames = [json.loads(line) for line in fh]
image = os.path.join("data-bad", frames[0]["patches"][0]["image"])
os.remove(image)
os.mkdir(image)
frames[1]["patches"][0]["loc3d"] = [1, 2]
frames[2]["position"][0] = float("nan")
with open(path, "w") as fh:
    fh.writelines(json.dumps(frame) + "\n" for frame in frames)
EOF_BAD
pg train --data data-bad --out bad/train $small
pg place --data data-bad --checkpoint gat-mean/train/model.json --out bad/place
pg eval --data nowhere --checkpoint nope.json --out fail/eval
