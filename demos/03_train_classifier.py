"""Training the numpy CNN + BiLSTM sentiment classifier.

Labels the bundled synthetic corpus with the lexicon, trains word vectors
on it, then fits the convolutional + bidirectional-LSTM network (pure
numpy, manual backpropagation) to predict the 5-class labels, and shows
chunked prediction on an over-length comment.

Run:  python3 demos/03_train_classifier.py   (a few seconds)
"""

from flamewatch import data_path
from flamewatch.embeddings import EmbedConfig, train_word2vec
from flamewatch.lexicon import label_corpus, load_emoji_table, load_lexicon
from flamewatch.network import ModelConfig, SentimentNet
from flamewatch.preprocess import build_corpus, load_jsonl

raws, _ = load_jsonl(data_path("synthetic_comments.jsonl"))
corpus = build_corpus(raws)
lexicon, _ = load_lexicon(data_path("mini_lexicon.tsv"))
emoji_table = load_emoji_table(data_path("emoji_polarity.tsv"))
labeled, _ = label_corpus(corpus.comments, lexicon, emoji_table)
print(f"training data: {len(labeled)} lexicon-labeled comments")

sentences = [item.comment.tokens for item in labeled]
embeddings = train_word2vec(
    sentences,
    EmbedConfig(dim=16, window=2, negatives=2, epochs=2, min_count=1, seed=0),
)
print(f"embeddings: {len(embeddings.vocab)} words x {embeddings.dim} dims")

config = ModelConfig(
    embed_dim=16, max_tokens=12, filters=8, kernel=3,
    lstm_hidden=8, dense_sizes=(16, 8),
    dropout_lstm=0.1, dropout_dense=0.1,
    batch_size=32, learning_rate=1e-3, seed=1,
)
model = SentimentNet(config, embeddings)
print(f"model: {model.num_parameters()} parameters, {model.grad.size} trainable "
      f"(the embedding is frozen)")

data = [(item.comment.tokens, int(item.label)) for item in labeled]
report = model.train(data, epochs=4, val_split=0.2)
for epoch, (loss, acc, vacc) in enumerate(
    zip(report.train_loss, report.train_accuracy, report.val_accuracy), 1
):
    print(f"  epoch {epoch}: loss {loss:.3f}  "
          f"train acc {acc:.1%}  val acc {vacc:.1%}")

# comments longer than max_tokens are split into chunks and the chunk
# softmax outputs averaged; prediction still returns a single distribution
long_tokens = [t for item in labeled[:6] for t in item.comment.tokens][:30]
label, probs = model.predict_tokens(long_tokens)
print(f"\n{len(long_tokens)}-token comment -> predicted {label.name}, "
      f"probabilities {[round(float(p), 3) for p in probs]}")
